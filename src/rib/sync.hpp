// sync.hpp — versioned delta dissemination and anti-entropy for the RIB.
//
// Flat RIEP dissemination floods full object values on every change.
// This engine makes control traffic proportional to *change* instead:
//
//   - every replicated mutation becomes a DeltaEntry stamped with the
//     origin's dissemination sequence number and the object's
//     origin-authoritative version; floods carry deltas, and replicas
//     apply them through Rib::upsert_versioned so re-floods and
//     out-of-order arrivals can never regress an object;
//   - each member keeps a bounded per-origin log of recent deltas
//     (OriginLog) so a neighbor that noticed a sequence gap can pull
//     exactly the missed range; when the requested range has fallen off
//     the log floor the server falls back to a full scoped snapshot
//     (a delta whose entries carry seq 0 — "repair" entries with no gap
//     semantics);
//   - periodic anti-entropy rounds exchange Digests — windows of sorted
//     (name, version) pairs over the replicated namespace — and
//     diff_digest turns a received window into the minimal repair: the
//     names to pull and the objects to push. Rounds open with a
//     Fingerprint (a 64-bit hash of the window): converged peers match
//     and the round costs a handful of bytes regardless of DIF size;
//     only a mismatch escalates to the full Digest exchange.
//
// Everything here is pure state + wire codecs (testable without an
// Ipcp); the Ipcp owns timers, ports, and the side-effects of applying
// an object (directory updates, LSDB updates, SPF scheduling).
//
// Deletions are class-specific tombstones (e.g. a DirEntry value with
// present=0) rather than object removal, so digests keep covering them
// and a lagging replica cannot resurrect a dead binding. Versions are
// per-object Lamport-style: concurrent writers to the *same* object
// name from different origins are last-version-wins, which is safe here
// because every replicated name embeds its origin (app registrations
// are per-node, LSU objects are per-router).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "naming/addr_map.hpp"
#include "naming/names.hpp"
#include "rib/riep.hpp"

namespace rina::rib {

/// Which RIB names replicate between members. Everything else (flow
/// state, enrollment scratch) is member-local.
inline bool replicated_scope(const std::string& name) {
  return name.rfind("/dif/directory/", 0) == 0 ||
         name.rfind("/routing/lsu/", 0) == 0;
}

// ------------------------------- deltas -------------------------------

/// One replicated mutation. seq > 0: a logged dissemination step from
/// `Delta::origin` (gap detection applies). seq == 0: a repair entry
/// (digest push, pull answer, or snapshot) — apply version-guarded, no
/// sequence bookkeeping.
struct DeltaEntry {
  std::uint64_t seq = 0;
  std::string name;
  std::string obj_class;
  std::uint64_t version = 0;
  Bytes value;
};

struct Delta {
  naming::Address origin;  // null for pure-repair messages (snapshots)
  std::vector<DeltaEntry> entries;

  [[nodiscard]] Bytes encode() const {
    BufWriter w(16 + entries.size() * 48);
    w.put_u32(origin.key());
    w.put_u16(static_cast<std::uint16_t>(entries.size()));
    for (const auto& e : entries) {
      w.put_u64(e.seq);
      w.put_lpstring(e.name);
      w.put_lpstring(e.obj_class);
      w.put_u64(e.version);
      w.put_lpbytes(BytesView{e.value});
    }
    return std::move(w).take();
  }

  static Result<Delta> decode(BytesView wire) {
    BufReader r(wire);
    Delta d;
    d.origin = naming::Address::from_key(r.get_u32());
    std::uint16_t n = r.get_u16();
    for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
      DeltaEntry e;
      e.seq = r.get_u64();
      e.name = r.get_lpstring();
      e.obj_class = r.get_lpstring();
      e.version = r.get_u64();
      e.value = r.get_lpbytes();
      d.entries.push_back(std::move(e));
    }
    if (!r.ok() || r.remaining() != 0) return {Err::decode, "bad RIB delta"};
    return d;
  }
};

// ------------------------------- digests ------------------------------

struct DigestEntry {
  std::string name;
  std::uint64_t version = 0;
};

/// A window of the replicated namespace: every scoped name in
/// (after, entries.back().name] in sorted order — or (after, +inf) when
/// `exhausted` — with the sender's version for each.
struct Digest {
  std::string after;
  bool exhausted = false;
  std::vector<DigestEntry> entries;

  [[nodiscard]] Bytes encode() const {
    BufWriter w(8 + after.size() + entries.size() * 24);
    w.put_lpstring(after);
    w.put_u8(exhausted ? 1 : 0);
    w.put_u16(static_cast<std::uint16_t>(entries.size()));
    for (const auto& e : entries) {
      w.put_lpstring(e.name);
      w.put_u64(e.version);
    }
    return std::move(w).take();
  }

  static Result<Digest> decode(BytesView wire) {
    BufReader r(wire);
    Digest d;
    d.after = r.get_lpstring();
    d.exhausted = r.get_u8() != 0;
    std::uint16_t n = r.get_u16();
    for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
      DigestEntry e;
      e.name = r.get_lpstring();
      e.version = r.get_u64();
      d.entries.push_back(std::move(e));
    }
    if (!r.ok() || r.remaining() != 0) return {Err::decode, "bad RIB digest"};
    return d;
  }
};

/// Anti-entropy opener: identifies a digest window by its start cursor
/// and a hash of its contents. The receiver rebuilds the same window
/// from its own rib; equal hashes end the round in O(1) bytes, a
/// mismatch falls back to the full Digest exchange.
struct Fingerprint {
  std::string after;
  std::uint64_t hash = 0;

  [[nodiscard]] Bytes encode() const {
    BufWriter w(16 + after.size());
    w.put_lpstring(after);
    w.put_u64(hash);
    return std::move(w).take();
  }

  static Result<Fingerprint> decode(BytesView wire) {
    BufReader r(wire);
    Fingerprint f;
    f.after = r.get_lpstring();
    f.hash = r.get_u64();
    if (!r.ok() || r.remaining() != 0)
      return {Err::decode, "bad RIB fingerprint"};
    return f;
  }
};

/// FNV-1a over the encoded window. Equal ribs build equal windows and
/// hash equal; any divergence in names or versions flips the hash.
inline std::uint64_t digest_fingerprint(const Digest& d) {
  Bytes b = d.encode();
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t byte : b) {
    h ^= byte;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Scoped names in (after, ...] sorted, capped at `budget` entries.
inline Digest build_digest(const Rib& rib, const std::string& after,
                           std::size_t budget) {
  Digest d;
  d.after = after;
  std::vector<std::string> names;
  for (const auto& [name, obj] : rib.objects()) {
    (void)obj;
    if (name > after && replicated_scope(name)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  d.exhausted = names.size() <= budget;
  if (names.size() > budget) names.resize(budget);
  d.entries.reserve(names.size());
  for (auto& name : names) {
    std::uint64_t v = rib.version_of(name);
    d.entries.push_back(DigestEntry{std::move(name), v});
  }
  return d;
}

struct DigestDiff {
  std::vector<std::string> want;        // peer newer or unknown here: pull
  std::vector<std::string> push;        // here newer or unknown at peer: push
};

/// Compare a received digest window against the local rib. Names the
/// peer has newer (or we lack) go to `want`; local scoped names in the
/// same window the peer lacks (or has older) go to `push`.
inline DigestDiff diff_digest(const Rib& rib, const Digest& d) {
  DigestDiff out;
  for (const auto& e : d.entries) {
    std::uint64_t mine = rib.version_of(e.name);
    if (mine < e.version) out.want.push_back(e.name);
    else if (mine > e.version) out.push.push_back(e.name);
  }
  // Local names inside the peer's window that the digest never listed:
  // the peer has no version at all — push them.
  const bool open_ended = d.exhausted;
  const std::string& upper = d.entries.empty() ? d.after : d.entries.back().name;
  std::vector<std::string> local;
  for (const auto& [name, obj] : rib.objects()) {
    (void)obj;
    if (!replicated_scope(name) || name <= d.after) continue;
    if (!open_ended && name > upper) continue;
    local.push_back(name);
  }
  std::sort(local.begin(), local.end());
  for (auto& name : local) {
    bool listed = std::any_of(d.entries.begin(), d.entries.end(),
                              [&](const DigestEntry& e) { return e.name == name; });
    if (!listed) out.push.push_back(std::move(name));
  }
  std::sort(out.push.begin(), out.push.end());
  out.push.erase(std::unique(out.push.begin(), out.push.end()), out.push.end());
  return out;
}

/// Cursor for the next digest round: "" restarts the sweep.
inline std::string next_cursor(const Digest& d) {
  if (d.exhausted || d.entries.empty()) return "";
  return d.entries.back().name;
}

// -------------------------------- pulls -------------------------------

/// Either a per-origin sequence-range pull (gap repair) or a by-name
/// pull (digest repair).
struct PullRequest {
  enum class Kind : std::uint8_t { seq_range = 1, names = 2 };
  Kind kind = Kind::seq_range;
  naming::Address origin;  // seq_range only
  std::uint64_t from = 0, to = 0;
  std::vector<std::string> names;  // names only

  [[nodiscard]] Bytes encode() const {
    BufWriter w(32);
    w.put_u8(static_cast<std::uint8_t>(kind));
    if (kind == Kind::seq_range) {
      w.put_u32(origin.key());
      w.put_u64(from);
      w.put_u64(to);
    } else {
      w.put_u16(static_cast<std::uint16_t>(names.size()));
      for (const auto& n : names) w.put_lpstring(n);
    }
    return std::move(w).take();
  }

  static Result<PullRequest> decode(BytesView wire) {
    BufReader r(wire);
    PullRequest p;
    std::uint8_t k = r.get_u8();
    if (k == 1) {
      p.kind = Kind::seq_range;
      p.origin = naming::Address::from_key(r.get_u32());
      p.from = r.get_u64();
      p.to = r.get_u64();
    } else if (k == 2) {
      p.kind = Kind::names;
      std::uint16_t n = r.get_u16();
      for (std::uint16_t i = 0; i < n && r.ok(); ++i)
        p.names.push_back(r.get_lpstring());
    } else {
      return {Err::decode, "bad RIB pull kind"};
    }
    if (!r.ok() || r.remaining() != 0) return {Err::decode, "bad RIB pull"};
    return p;
  }
};

// ----------------------------- origin log -----------------------------

/// Bounded log of the most recent deltas from one origin, keyed by that
/// origin's dissemination seq. Serves range pulls; presence doubles as
/// the duplicate filter for re-flooded deltas.
///
/// Storage is one vector sorted by seq. Entries almost always arrive in
/// order, so a record is an append; evicting the oldest only advances
/// `head_`, and the dead prefix is compacted once it reaches the
/// capacity, so eviction is amortized O(1) without a node per entry.
class OriginLog {
 public:
  explicit OriginLog(std::size_t cap = 64) : cap_(cap ? cap : 1) {}

  void set_capacity(std::size_t cap) { cap_ = cap ? cap : 1; }

  [[nodiscard]] std::uint64_t high() const noexcept { return high_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size() - head_; }
  [[nodiscard]] bool has(std::uint64_t seq) const {
    if (seq > high_) return false;
    auto it = lower(seq);
    return it != entries_.end() && it->seq == seq;
  }
  [[nodiscard]] std::uint64_t floor() const {
    return size() == 0 ? high_ + 1 : entries_[head_].seq;
  }

  /// Log `e` under its seq (a re-recorded seq overwrites), then evict the
  /// oldest entries beyond the capacity.
  void record(DeltaEntry e) {
    if (e.seq == 0) return;
    high_ = std::max(high_, e.seq);
    auto it = lower(e.seq);
    if (it != entries_.end() && it->seq == e.seq)
      *it = std::move(e);
    else
      entries_.insert(it, std::move(e));
    while (size() > cap_) entries_[head_++] = DeltaEntry{};
    if (head_ >= cap_) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// True iff every seq in [from, to] is still retained.
  [[nodiscard]] bool can_serve(std::uint64_t from, std::uint64_t to) const {
    if (from == 0 || to < from || to > high_) return false;
    if (to - from + 1 > size()) return false;
    auto it = lower(from);
    for (std::uint64_t s = from; s <= to; ++s, ++it)
      if (it == entries_.end() || it->seq != s) return false;
    return true;
  }

  [[nodiscard]] std::vector<DeltaEntry> collect(std::uint64_t from,
                                                std::uint64_t to) const {
    std::vector<DeltaEntry> out;
    for (auto it = lower(from); it != entries_.end() && it->seq <= to; ++it)
      out.push_back(*it);
    return out;
  }

 private:
  using Iter = std::vector<DeltaEntry>::iterator;
  using CIter = std::vector<DeltaEntry>::const_iterator;

  /// First live entry with seq >= `seq`.
  [[nodiscard]] CIter lower(std::uint64_t seq) const {
    return std::lower_bound(
        entries_.begin() + static_cast<std::ptrdiff_t>(head_), entries_.end(),
        seq, [](const DeltaEntry& e, std::uint64_t s) { return e.seq < s; });
  }
  [[nodiscard]] Iter lower(std::uint64_t seq) {
    return std::lower_bound(
        entries_.begin() + static_cast<std::ptrdiff_t>(head_), entries_.end(),
        seq, [](const DeltaEntry& e, std::uint64_t s) { return e.seq < s; });
  }

  std::size_t cap_;
  std::uint64_t high_ = 0;
  std::size_t head_ = 0;  // entries_[0, head_) are evicted, awaiting compaction
  std::vector<DeltaEntry> entries_;  // sorted by seq
};

/// Per-member sync state: one OriginLog per origin plus the digest
/// cursor for the member's own anti-entropy sweep.
class SyncState {
 public:
  explicit SyncState(std::size_t log_cap = 64) : log_cap_(log_cap) {}

  void set_log_capacity(std::size_t cap) {
    log_cap_ = cap;
    for (const auto& [origin, log] : logs_) {
      (void)origin;
      log.set_capacity(cap);
    }
  }

  OriginLog& log(naming::Address origin) {
    return (*logs_.try_emplace(origin, log_cap_).first).second;
  }

  [[nodiscard]] const OriginLog* find_log(naming::Address origin) const {
    auto it = logs_.find(origin);
    return it == logs_.end() ? nullptr : &it->second;
  }

  std::string cursor;  // anti-entropy digest window cursor

 private:
  std::size_t log_cap_;
  naming::AddrMap<OriginLog> logs_;
};

/// Full scoped snapshot as a repair delta (every entry seq 0), for the
/// too-far-behind fallback. Sorted by name for determinism.
inline Delta build_snapshot(const Rib& rib, std::size_t max_entries) {
  Delta d;  // origin stays null: pure repair
  // Sort the scoped objects themselves (names are unique keys), so each
  // entry is read once instead of looked up again by name.
  using Item = const std::pair<const std::string, Rib::Object>*;
  std::vector<Item> items;
  for (const auto& kv : rib.objects())
    if (replicated_scope(kv.first)) items.push_back(&kv);
  std::sort(items.begin(), items.end(),
            [](Item a, Item b) { return a->first < b->first; });
  if (items.size() > max_entries) items.resize(max_entries);
  d.entries.reserve(items.size());
  for (Item it : items) {
    const Rib::Object& o = it->second;
    d.entries.push_back(DeltaEntry{0, it->first, o.obj_class, o.version, o.value});
  }
  return d;
}

}  // namespace rina::rib
