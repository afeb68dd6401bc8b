// addr_map.hpp — dense address-keyed map for per-DIF control-plane state.
//
// Every member of a DIF keeps several tables keyed by the addresses of the
// other members: its link-state database, routing graph and SPF tree, FIB
// rows, per-origin delta logs. A DIF repeats at every layer and scope, so
// what one of those tables costs per member is paid again everywhere. An
// address is (region, node) — both small, dense integers handed out by
// the DIF — so AddrMap stores values in a region -> node radix table:
//
//   regions_[region - base][node >> kPageBits] -> Page of kPageSlots values
//
// Pages are allocated on first insert into their node range and freed
// when their last value is erased, so a sparse map (one wildcard entry,
// a node id of 65535) costs one page plus its directory, never 65,536
// slots; a dense one is ~one slot per member. Page size is fixed (16):
// small enough that a ten-member DIF fills one page, large enough that a
// thousand-member DIF needs only ~60 page pointers. The region table
// spans only the regions in use (it starts at the lowest), and each
// region holds its page 0 inline, so the many small single-region maps
// of a many-DIF network pay one small allocation besides their page.
//
// Contract (the parts of std::map the control plane relies on):
//   - lookup, insert and erase are O(1): two bounds-checked indexes;
//   - iteration visits entries in ascending Address::key() order —
//     regions ascending, then nodes ascending — exactly std::map's order,
//     so Dijkstra tie-breaks, FIB next-hop lists and enrollment snapshots
//     built by iterating come out identical;
//   - references and iterators to an entry stay valid until that entry is
//     erased (pages never move; only the pointer directories grow).
// Dereferencing an iterator yields a pair<const Address, T&> by value, so
// range-for binds with `const auto& [addr, value]` (value is mutable
// through a non-const map).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "naming/names.hpp"

namespace rina::naming {

template <typename T>
class AddrMap {
  static constexpr unsigned kPageBits = 4;
  static constexpr std::uint32_t kPageSlots = 1u << kPageBits;
  static constexpr std::uint32_t kSlotMask = kPageSlots - 1;

  /// kPageSlots values in place, `used` bit i marking slot i live.
  struct Page {
    Page() = default;
    Page(const Page&) = delete;
    Page& operator=(const Page&) = delete;
    ~Page() {
      for (std::uint32_t bits = used; bits != 0; bits &= bits - 1)
        slot(static_cast<std::uint32_t>(__builtin_ctz(bits)))->~T();
    }
    T* slot(std::uint32_t i) {
      return std::launder(reinterpret_cast<T*>(raw) + i);
    }
    const T* slot(std::uint32_t i) const {
      return std::launder(reinterpret_cast<const T*>(raw) + i);
    }

    std::uint32_t used = 0;
    alignas(T) unsigned char raw[kPageSlots * sizeof(T)];
  };
  /// One region's pages, indexed by node >> kPageBits. Page 0 (node ids
  /// 0-15: every member of a small DIF, and the region wildcard) is held
  /// inline, so a small map allocates no page directory at all.
  struct Region {
    [[nodiscard]] std::size_t span() const { return rest.size() + 1; }
    [[nodiscard]] Page* get(std::size_t pi) const {
      return pi == 0 ? first.get() : pi <= rest.size() ? rest[pi - 1].get() : nullptr;
    }
    std::unique_ptr<Page>& grow_to(std::size_t pi) {
      if (pi == 0) return first;
      if (pi > rest.size()) rest.resize(pi);
      return rest[pi - 1];
    }

    std::unique_ptr<Page> first;
    std::vector<std::unique_ptr<Page>> rest;  // page pi at rest[pi - 1]
  };

 public:
  template <bool Const>
  class Iter {
    using MapPtr = std::conditional_t<Const, const AddrMap*, AddrMap*>;
    using Val = std::conditional_t<Const, const T, T>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using difference_type = std::ptrdiff_t;
    using value_type = std::pair<const Address, Val&>;
    using reference = value_type;
    struct pointer {
      value_type v;
      const value_type* operator->() const { return &v; }
    };

    Iter() = default;
    operator Iter<true>() const { return Iter<true>(map_, key_, val_); }

    reference operator*() const { return {Address::from_key(key_), *val_}; }
    pointer operator->() const { return pointer{**this}; }
    Iter& operator++() {
      *this = map_->template seek<Iter>(static_cast<std::uint64_t>(key_) + 1);
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iter& o) const { return val_ == o.val_; }
    bool operator!=(const Iter& o) const { return val_ != o.val_; }

   private:
    friend class AddrMap;
    template <bool>
    friend class Iter;
    Iter(MapPtr m, std::uint32_t key, Val* v) : map_(m), key_(key), val_(v) {}

    MapPtr map_ = nullptr;
    std::uint32_t key_ = 0;
    Val* val_ = nullptr;  // nullptr = end()
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  AddrMap() = default;
  AddrMap(AddrMap&& o) noexcept
      : regions_(std::move(o.regions_)),
        base_(o.base_),
        size_(std::exchange(o.size_, 0)) {
    o.regions_.clear();
  }
  AddrMap& operator=(AddrMap&& o) noexcept {
    if (this != &o) {
      regions_ = std::move(o.regions_);
      base_ = o.base_;
      size_ = std::exchange(o.size_, 0);
      o.regions_.clear();
    }
    return *this;
  }
  ~AddrMap() = default;

  AddrMap(const AddrMap& o) : base_(o.base_), size_(o.size_) {
    regions_.resize(o.regions_.size());
    for (std::size_t r = 0; r < o.regions_.size(); ++r) {
      const Region& src = o.regions_[r];
      Region& dst = regions_[r];
      dst.rest.resize(src.rest.size());
      for (std::size_t pi = 0; pi < src.span(); ++pi) {
        const Page* from = src.get(pi);
        if (from == nullptr) continue;
        std::unique_ptr<Page> page(new Page);
        for (std::uint32_t bits = from->used; bits != 0; bits &= bits - 1) {
          auto i = static_cast<std::uint32_t>(__builtin_ctz(bits));
          ::new (static_cast<void*>(page->slot(i))) T(*from->slot(i));
          page->used |= 1u << i;
        }
        dst.grow_to(pi) = std::move(page);
      }
    }
  }
  AddrMap& operator=(const AddrMap& o) {
    if (this != &o) {
      AddrMap copy(o);
      *this = std::move(copy);
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Pages currently allocated (each holds kPageSlots value slots).
  [[nodiscard]] std::size_t page_count() const {
    std::size_t n = 0;
    for (const Region& reg : regions_)
      for (std::size_t pi = 0; pi < reg.span(); ++pi) n += reg.get(pi) != nullptr;
    return n;
  }

  [[nodiscard]] iterator begin() { return seek<iterator>(0); }
  [[nodiscard]] iterator end() { return iterator{}; }
  [[nodiscard]] const_iterator begin() const { return seek<const_iterator>(0); }
  [[nodiscard]] const_iterator end() const { return const_iterator{}; }

  [[nodiscard]] iterator find(Address a) {
    T* v = lookup(a);
    return v == nullptr ? end() : iterator(this, a.key(), v);
  }
  [[nodiscard]] const_iterator find(Address a) const {
    const T* v = const_cast<AddrMap*>(this)->lookup(a);
    return v == nullptr ? end() : const_iterator(this, a.key(), v);
  }
  [[nodiscard]] std::size_t count(Address a) const {
    return const_cast<AddrMap*>(this)->lookup(a) != nullptr ? 1 : 0;
  }

  [[nodiscard]] T& at(Address a) {
    T* v = lookup(a);
    if (v == nullptr) throw std::out_of_range("AddrMap::at " + a.to_string());
    return *v;
  }
  [[nodiscard]] const T& at(Address a) const {
    return const_cast<AddrMap*>(this)->at(a);
  }

  /// Insert T(args...) at `a` unless present; never overwrites.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(Address a, Args&&... args) {
    Page& page = page_for(a);
    std::uint32_t i = a.node & kSlotMask;
    T* v = page.slot(i);
    if ((page.used >> i & 1u) != 0) return {iterator(this, a.key(), v), false};
    ::new (static_cast<void*>(v)) T(std::forward<Args>(args)...);
    page.used |= 1u << i;
    ++size_;
    return {iterator(this, a.key(), v), true};
  }

  T& operator[](Address a) { return *try_emplace(a).first.val_; }

  std::size_t erase(Address a) {
    Region* reg = region(a.region);
    std::size_t pi = a.node >> kPageBits;
    Page* page = reg == nullptr ? nullptr : reg->get(pi);
    std::uint32_t i = a.node & kSlotMask;
    if (page == nullptr || (page->used >> i & 1u) == 0) return 0;
    page->slot(i)->~T();
    page->used &= ~(1u << i);
    --size_;
    if (page->used == 0) reg->grow_to(pi).reset();
    return 1;
  }
  /// Erase the entry at `it`; returns the iterator past it.
  iterator erase(const_iterator it) {
    std::uint32_t key = it.key_;
    erase(Address::from_key(key));
    return seek<iterator>(static_cast<std::uint64_t>(key) + 1);
  }

  void clear() {
    regions_.clear();
    size_ = 0;
  }

 private:
  /// Region `r`'s pages, or nullptr when the table does not reach it.
  /// regions_[0] is region base_, the lowest region ever inserted.
  Region* region(std::uint16_t r) {
    std::size_t ri = static_cast<std::size_t>(r) - base_;
    return r >= base_ && ri < regions_.size() ? &regions_[ri] : nullptr;
  }

  T* lookup(Address a) {
    Region* reg = region(a.region);
    Page* page = reg == nullptr ? nullptr : reg->get(a.node >> kPageBits);
    std::uint32_t i = a.node & kSlotMask;
    return page != nullptr && (page->used >> i & 1u) != 0 ? page->slot(i)
                                                           : nullptr;
  }

  Page& page_for(Address a) {
    if (regions_.empty()) {
      base_ = a.region;
    } else if (a.region < base_) {
      // Lower the base: shift the region entries up (pages stay put).
      std::vector<Region> grown(regions_.size() + (base_ - a.region));
      std::move(regions_.begin(), regions_.end(),
                grown.begin() + (base_ - a.region));
      regions_ = std::move(grown);
      base_ = a.region;
    }
    std::size_t ri = static_cast<std::size_t>(a.region) - base_;
    if (ri >= regions_.size()) regions_.resize(ri + 1);
    std::unique_ptr<Page>& page = regions_[ri].grow_to(a.node >> kPageBits);
    if (!page) page.reset(new Page);  // default-init: slots stay raw
    return *page;
  }

  /// First entry whose key is >= `from` (a 64-bit bound so key + 1 past
  /// the last address is simply "end").
  template <typename It>
  It seek(std::uint64_t from) const {
    using MapPtr = decltype(It{}.map_);
    auto self = const_cast<MapPtr>(this);
    std::size_t ri = 0;
    std::uint32_t node = 0;
    if ((from >> 16) >= base_) {
      ri = static_cast<std::size_t>((from >> 16) - base_);
      node = static_cast<std::uint32_t>(from & 0xFFFF);
    }
    for (; ri < regions_.size(); ++ri, node = 0) {
      const Region& reg = regions_[ri];
      for (std::size_t pi = node >> kPageBits; pi < reg.span(); ++pi, node = 0) {
        Page* page = reg.get(pi);
        if (page == nullptr) continue;
        std::uint32_t bits = page->used & (~0u << (node & kSlotMask));
        if (bits == 0) continue;
        auto i = static_cast<std::uint32_t>(__builtin_ctz(bits));
        auto key = static_cast<std::uint32_t>(
            ((base_ + ri) << 16) | (pi << kPageBits) | i);
        return It(self, key, page->slot(i));
      }
    }
    return It{};
  }

  std::vector<Region> regions_;  // region base_ + i at regions_[i]
  std::uint16_t base_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rina::naming
