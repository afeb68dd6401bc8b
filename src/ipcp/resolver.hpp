// resolver.hpp — the name-resolution task of one IPC process: the
// directory replica, announce and withdraw of this member's
// registrations, and the lookup an allocation resolves through.
//
// The arrangement is fixed when the component is built. Flat: every
// member holds the whole directory, a registration spreads the way the
// DIF spreads everything (flood or delta sync, the IPCP's choice), and a
// lookup is local. Hierarchical (cfg.dir_hierarchical): a registration
// goes only to the resolver chain (region anchor, DIF root); everyone
// else queries up on a miss and caches the answer with a TTL, and an
// authority that loses or rebinds an entry sends targeted invalidations
// down the interest it recorded, never a flood.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/stats.hpp"
#include "dif/config.hpp"
#include "naming/addr_map.hpp"
#include "naming/dir_cache.hpp"
#include "naming/directory.hpp"
#include "relay/forwarding.hpp"
#include "rib/riep.hpp"
#include "sim/scheduler.hpp"

namespace rina::ipcp {

class Ipcp;

class Resolver {
 public:
  using ResolveCb = std::function<void(std::optional<naming::Address>)>;

  /// Counters (dir_cache_hits, dir_queries_sent, ...) go to the owner's
  /// `stats`.
  Resolver(Ipcp& self, const dif::DifConfig& cfg, Stats& stats)
      : self_(self), cfg_(cfg), stats_(stats), hierarchical_(cfg.dir_hierarchical),
        cache_(cfg.dir_cache_ttl, cfg.dir_cache_entries) {}

  naming::Directory& directory() { return dir_; }
  naming::DirCache& cache() { return cache_; }

  /// Bind `app` to this member and announce it, again a few times while
  /// the DIF converges. No-op until enrolled.
  void publish_app(const naming::AppName& app);
  /// Withdraw `app` (unregister, or the first half of a move).
  void unpublish_app(const naming::AppName& app);

  /// May an allocation here hope to resolve `app`? An enrolled member of
  /// a hierarchical DIF claims yes; a true miss fails at the deadline.
  [[nodiscard]] bool can_resolve(const naming::AppName& app) const;

  /// The one lookup chain: the replica; then, in an enrolled member of a
  /// hierarchical DIF, the TTL cache and a query to the resolver parent.
  /// Returns the address when it is known here. `waiter`, if given,
  /// fires exactly once: now, or with the answer of the query that went
  /// up. Without one this is the allocator's poll, which adds nothing
  /// while a query for `app` is in flight.
  std::optional<naming::Address> resolve(const naming::AppName& app,
                                         ResolveCb* waiter = nullptr);

 private:
  friend class Ipcp;

  // The IPCP's hooks: join accept block (empty when hierarchical) and its
  // install, which overwrites; DirSync to a fresh flat adjacency and its
  // install, which only fills gaps; the routed and flooded handlers.
  void put_join_block(BufWriter& w);
  void take_join_block(BufReader& r);
  void send_sync(relay::PortIndex idx);
  void handle_sync(const rib::RiepMessage& m);
  /// DirUpd flooded on `port` (re-flooded when flat) or routed to me.
  void handle_update(const rib::RiepMessage& m,
                     std::optional<relay::PortIndex> port);
  void handle_read(const rib::RiepMessage& m);
  void handle_read_reply(const rib::RiepMessage& m);
  void handle_inval(const rib::RiepMessage& m);
  /// A replicated DirEntry (delta sync) past its version gate.
  void apply_entry(BytesView value);
  /// DirUpd binding `app` to me (op 1) or withdrawing it (op 2), and the
  /// replicated DirEntry value that means the same.
  rib::RiepMessage update_msg(const naming::AppName& app, std::uint8_t op);
  Bytes entry_value(const naming::AppName& app, std::uint8_t op) const;
  /// A neighbor said Bye: drop what it served.
  void forget(naming::Address peer);
  /// Leaving the DIF: queries, cache and interest go; the replica stays.
  void reset();

  void announce(const naming::AppName& app, std::uint8_t op);
  void put_dir(BufWriter& w, std::size_t budget);
  /// The next resolver up: my region's anchor {region, dir_anchor_node},
  /// or the root above an anchor, or null at the top of the chain.
  [[nodiscard]] naming::Address parent() const;
  void send_query(const naming::AppName& app);
  void finish_query(const naming::AppName& app,
                    std::optional<naming::Address> result);
  void send_targeted_update(const naming::AppName& app, std::uint8_t op);
  void cascade_inval(const naming::AppName& app, naming::Address at);
  /// Was this (origin, seq) of a DirUpd or DirInval seen before?
  bool seen(naming::Address origin, std::uint64_t seq);

  Ipcp& self_;
  const dif::DifConfig& cfg_;  // the owning IPCP's
  Stats& stats_;
  const bool hierarchical_;

  naming::Directory dir_;
  naming::DirCache cache_;
  std::set<std::uint64_t> seen_;  // DirUpd/DirInval (origin, seq) dedup
  std::uint64_t seq_ = 0;         // my own DirUpd/DirInval sequence
  std::vector<sim::Timer> announce_timers_;  // staggered re-announces

  struct PendingResolve {
    std::vector<ResolveCb> cbs;  // null entries = cache-warming only
    int attempts = 0;
    sim::Timer timer;
  };
  std::map<naming::AppName, PendingResolve> pending_;
  // Who asked me for a name recently (authorities only; queries land on
  // the resolver chain). Invalidations cascade down these edges instead
  // of flooding the DIF, so a mobility event costs O(actual interest).
  std::map<naming::AppName, naming::AddrMap<SimTime>> interest_;
};

}  // namespace rina::ipcp
