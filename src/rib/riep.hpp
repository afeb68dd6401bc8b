// riep.hpp — the Resource Information Base and its exchange protocol.
//
// All management in a DIF — enrollment, directory dissemination, routing
// updates, flow allocation — is reading and writing named objects in the
// members' RIBs. RIEP is the one wire format for those operations; the
// object class selects the handler, so "the management protocol" is a
// dispatch table over RIB object classes rather than a zoo of separate
// protocols.
//
// Wire layout: u8 op | u32 invoke_id | lp16 obj_name | lp16 obj_class |
//              lp32 value.
//
// Every object carries a version: 1 at creation, bumped by every
// mutation. Versions are what the `sync` op exchanges — anti-entropy
// digests compare (name, version) pairs so peers pull only objects that
// actually differ (src/rib/sync.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace rina::rib {

enum class RiepOp : std::uint8_t {
  create = 1,
  remove = 2,
  read = 3,
  write = 4,
  start = 5,
  stop = 6,
  reply = 7,
  sync = 8,  // anti-entropy: digests, deltas, pulls, snapshots
};

struct RiepMessage {
  RiepOp op = RiepOp::read;
  std::uint32_t invoke_id = 0;
  std::string obj_name;
  std::string obj_class;
  Bytes value;

  [[nodiscard]] Bytes encode() const {
    BufWriter w(16 + obj_name.size() + obj_class.size() + value.size());
    w.put_u8(static_cast<std::uint8_t>(op));
    w.put_u32(invoke_id);
    w.put_lpstring(obj_name);
    w.put_lpstring(obj_class);
    w.put_lpbytes(BytesView{value});
    // A latched writer (field too large for its length prefix) makes
    // take() yield an empty frame, which every decoder rejects cleanly.
    return std::move(w).take();
  }

  static Result<RiepMessage> decode(BytesView wire) {
    BufReader r(wire);
    RiepMessage m;
    std::uint8_t op = r.get_u8();
    m.invoke_id = r.get_u32();
    m.obj_name = r.get_lpstring();
    m.obj_class = r.get_lpstring();
    m.value = r.get_lpbytes();
    if (!r.ok()) return {Err::decode, "short RIEP message"};
    if (op < 1 || op > 8) return {Err::decode, "bad RIEP op"};
    if (r.remaining() != 0) return {Err::decode, "trailing RIEP bytes"};
    m.op = static_cast<RiepOp>(op);
    return m;
  }
};

/// Which RIB names replicate between members. Everything else (flow
/// state, enrollment scratch) is member-local.
inline bool replicated_scope(const std::string& name) {
  return name.rfind("/dif/directory/", 0) == 0 ||
         name.rfind("/routing/lsu/", 0) == 0;
}

/// One member's object store. Objects are (name, class, value); names are
/// hierarchical by convention ("/dif/directory/<app>", "/routing/lsu/<addr>").
/// Lookups go through a hash map. The replicated names alone also sit in
/// a sorted index, so digest windows and snapshots (src/rib/sync.hpp)
/// walk names in order from a cursor instead of sorting the whole store.
class Rib {
 public:
  struct Object {
    std::string obj_class;
    Bytes value;
    std::uint64_t version = 0;
  };

  Rib() = default;
  // The index points into objects_'s nodes, so a copy re-points it.
  // (No move operations: a move copies, and a moved-from Rib could not
  // keep a stale index.)
  Rib(const Rib& o) : objects_(o.objects_) { rebuild_index(); }
  Rib& operator=(const Rib& o) {
    if (this != &o) {
      objects_ = o.objects_;
      rebuild_index();
    }
    return *this;
  }

  Result<void> create(const std::string& name, std::string obj_class, Bytes value) {
    auto [it, inserted] =
        objects_.emplace(name, Object{std::move(obj_class), std::move(value), 1});
    if (!inserted) return {Err::already_exists, name};
    index(it->first);
    return Ok();
  }

  Result<void> write(const std::string& name, Bytes value) {
    auto it = objects_.find(name);
    if (it == objects_.end()) return {Err::not_found, name};
    it->second.value = std::move(value);
    ++it->second.version;
    return Ok();
  }

  /// Create-or-write: dissemination upserts remote state.
  void upsert(const std::string& name, const std::string& obj_class,
              const Bytes& value) {
    auto it = objects_.find(name);
    if (it == objects_.end()) {
      index(objects_.emplace(name, Object{obj_class, value, 1}).first->first);
    } else {
      it->second.value = value;
      ++it->second.version;
    }
  }

  /// Replica apply: install `value` at an origin-authoritative `version`.
  /// No-op (returns false) unless `version` is newer than what we hold —
  /// re-floods and out-of-order deltas must never regress an object. The
  /// value is copied only when it is installed, so rejected repairs cost
  /// one lookup.
  bool upsert_versioned(const std::string& name, const std::string& obj_class,
                        const Bytes& value, std::uint64_t version) {
    auto it = objects_.find(name);
    if (it == objects_.end()) {
      index(objects_.emplace(name, Object{obj_class, value, version}).first->first);
      return true;
    }
    if (version <= it->second.version) return false;
    it->second.value = value;
    it->second.version = version;
    return true;
  }

  [[nodiscard]] Result<Bytes> read(const std::string& name) const {
    auto it = objects_.find(name);
    if (it == objects_.end()) return {Err::not_found, name};
    return it->second.value;
  }

  /// Version of `name`, or 0 when absent (versions start at 1).
  [[nodiscard]] std::uint64_t version_of(const std::string& name) const {
    auto it = objects_.find(name);
    return it == objects_.end() ? 0 : it->second.version;
  }

  [[nodiscard]] const Object* find(const std::string& name) const {
    auto it = objects_.find(name);
    return it == objects_.end() ? nullptr : &it->second;
  }

  Result<void> remove(const std::string& name) {
    auto it = objects_.find(name);
    if (it == objects_.end()) return {Err::not_found, name};
    if (replicated_scope(name)) {
      const auto& idx = scoped_names();
      scoped_.erase(std::lower_bound(idx.begin(), idx.end(), name, NameLess{}));
      --sorted_;
    }
    objects_.erase(it);
    return Ok();
  }

  [[nodiscard]] std::size_t size() const { return objects_.size(); }

  [[nodiscard]] const std::unordered_map<std::string, Object>& objects() const {
    return objects_;
  }

  /// Every replicated-scope name, sorted. Names inserted since the last
  /// call are sorted and merged in here, so a burst of inserts (a
  /// bring-up) costs one sort, and a quiet store costs nothing.
  [[nodiscard]] const std::vector<const std::string*>& scoped_names() const {
    if (sorted_ < scoped_.size()) {
      auto mid = scoped_.begin() + static_cast<std::ptrdiff_t>(sorted_);
      std::sort(mid, scoped_.end(), NameLess{});
      std::inplace_merge(scoped_.begin(), mid, scoped_.end(), NameLess{});
      sorted_ = scoped_.size();
    }
    return scoped_;
  }

  /// Comparator for scoped_names(): by name, and against a bare name for
  /// lower_bound / upper_bound.
  struct NameLess {
    bool operator()(const std::string* a, const std::string* b) const { return *a < *b; }
    bool operator()(const std::string* a, const std::string& b) const { return *a < b; }
    bool operator()(const std::string& a, const std::string* b) const { return a < *b; }
  };

 private:
  void index(const std::string& key) {
    if (replicated_scope(key)) scoped_.push_back(&key);
  }

  void rebuild_index() {
    scoped_.clear();
    sorted_ = 0;
    for (const auto& kv : objects_) index(kv.first);
  }

  std::unordered_map<std::string, Object> objects_;
  // Keys of the replicated objects (node-stable: unordered_map never
  // moves an element). [0, sorted_) is sorted, the rest awaits a merge.
  mutable std::vector<const std::string*> scoped_;
  mutable std::size_t sorted_ = 0;
};

}  // namespace rina::rib
