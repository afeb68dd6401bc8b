// resolver.cpp — directory replica, registration announce/withdraw, and
// the hierarchical resolution chain (queries up, invalidations down).

#include "ipcp/resolver.hpp"

#include <algorithm>

#include "ipcp/codec.hpp"
#include "ipcp/ipcp.hpp"

namespace rina::ipcp {

namespace {

// Hierarchical directory queries: retry against routing convergence,
// then report the miss (the flow allocator keeps polling on its own).
constexpr SimTime kDirQueryRetry = SimTime::from_ms(50);
constexpr int kMaxDirQueryAttempts = 4;
constexpr std::size_t kMaxDirInterest = 128;

std::string dir_obj(const naming::AppName& app) {
  return "/dif/directory/" + app.to_string();
}

/// Read a directory snapshot block (put_dir), handing each intact
/// (app, address) record to `install`.
template <typename Install>
void read_dir(BufReader& r, Install install) {
  std::uint16_t n = r.get_u16();
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
    naming::AppName app = get_app(r);
    naming::Address at = get_addr(r);
    if (r.ok()) install(app, at);
  }
}

}  // namespace

void Resolver::announce(const naming::AppName& app, std::uint8_t op) {
  if (hierarchical_)
    send_targeted_update(app, op);
  else
    self_.disseminate_dir(app, op);
}

void Resolver::publish_app(const naming::AppName& app) {
  if (!self_.enrolled_ || self_.address_.is_null()) return;
  dir_.add(app, self_.address_);
  announce(app, 1);
  // Registration can race adjacency bring-up (the flood reaches only
  // usable ports); re-announce with fresh sequence numbers until the DIF
  // has had time to converge.
  announce_timers_.erase(
      std::remove_if(announce_timers_.begin(), announce_timers_.end(),
                     [](const sim::Timer& t) { return !t.armed(); }),
      announce_timers_.end());
  for (double ms : {20.0, 100.0, 500.0}) {
    announce_timers_.push_back(
        self_.sched().schedule_after(SimTime::from_ms(ms), [this, app] {
          if (self_.enrolled_ &&
              dir_.lookup(app) == std::optional<naming::Address>{self_.address_})
            announce(app, 1);
        }));
  }
}

void Resolver::unpublish_app(const naming::AppName& app) {
  std::optional<naming::Address> was = dir_.lookup(app);
  dir_.remove(app);
  announce(app, 2);
  // Mobility/unregister: every cached copy of the old binding must die.
  // The authorities cascade the invalidation down their interest lists
  // when the remove reaches them; here only local state is left.
  if (hierarchical_ && was) cascade_inval(app, *was);
}

rib::RiepMessage Resolver::update_msg(const naming::AppName& app, std::uint8_t op) {
  BufWriter w(32);
  put_addr(w, self_.address_);
  w.put_u64(++seq_);
  w.put_u8(op);
  put_app(w, app);
  put_addr(w, self_.address_);
  return riep_msg(op == 1 ? rib::RiepOp::create : rib::RiepOp::remove,
                  dir_obj(app), kClsDirUpd, std::move(w).take());
}

Bytes Resolver::entry_value(const naming::AppName& app, std::uint8_t op) const {
  BufWriter w(8 + app.to_string().size());
  w.put_u8(op);  // 1 = bind to me, 2 = tombstone
  put_app(w, app);
  put_addr(w, self_.address_);
  return std::move(w).take();
}

void Resolver::apply_entry(BytesView value) {
  BufReader r(value);
  std::uint8_t op = r.get_u8();
  naming::AppName app = get_app(r);
  naming::Address at = get_addr(r);
  if (!r.ok()) return;
  if (op == 1 && !at.is_null())
    dir_.add(app, at);
  else if (op == 2)
    dir_.remove(app);  // version gate already ordered us after any add
}

bool Resolver::seen(naming::Address origin, std::uint64_t seq) {
  std::uint64_t key = (static_cast<std::uint64_t>(origin.key()) << 24) ^ seq;
  if (seen_.insert(key).second) return false;
  stats_.inc("dir_dups_suppressed");
  return true;
}

void Resolver::handle_update(const rib::RiepMessage& m,
                             std::optional<relay::PortIndex> port) {
  BufReader r(BytesView{m.value});
  naming::Address origin = get_addr(r);
  std::uint64_t seq = r.get_u64();
  std::uint8_t op = r.get_u8();
  naming::AppName app = get_app(r);
  naming::Address at = get_addr(r);
  if (!r.ok() || origin.is_null() || origin == self_.address_) return;
  if (seen(origin, seq)) return;
  std::optional<naming::Address> old = dir_.lookup(app);
  if (op == 1)
    dir_.add(app, at);
  else
    dir_.remove(app);
  if (!hierarchical_) {
    if (port) self_.flood(m, *port);
  } else if (old && (op != 1 || *old != at)) {
    // An authority losing (or rebinding) an entry kills every cached
    // copy of the old binding via its interest list — mobility costs
    // O(who actually resolved the name), not O(members).
    cascade_inval(app, *old);
  }
}

void Resolver::put_dir(BufWriter& w, std::size_t budget) {
  put_snapshot(w, dir_.entries(), budget, stats_,
               [](BufWriter& b, const naming::AppName& app, naming::Address at) {
                 put_app(b, app);
                 put_addr(b, at);
               });
}

void Resolver::put_join_block(BufWriter& w) {
  if (hierarchical_)
    w.put_u16(0);
  else
    put_dir(w, kSnapshotBudget / 2);
}

void Resolver::take_join_block(BufReader& r) {
  read_dir(r, [this](const naming::AppName& app, naming::Address at) {
    dir_.add(app, at);
  });
}

void Resolver::send_sync(relay::PortIndex idx) {
  if (hierarchical_ || !self_.enrolled_ || dir_.size() == 0) return;
  BufWriter w(256);
  put_dir(w, kSnapshotBudget);
  self_.send_mgmt(idx, riep_msg(rib::RiepOp::write, "/dif/directory", kClsDirSync,
                                std::move(w).take()));
}

void Resolver::handle_sync(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  read_dir(r, [this](const naming::AppName& app, naming::Address at) {
    if (!dir_.lookup(app)) dir_.add(app, at);
  });
}

void Resolver::forget(naming::Address peer) {
  dir_.remove_at(peer);
  std::size_t n = cache_.invalidate_at(peer);
  if (n != 0) stats_.inc("dir_cache_invalidations", n);
}

void Resolver::reset() {
  pending_.clear();  // their retry timers die with them
  cache_.clear();
  interest_.clear();
}

bool Resolver::can_resolve(const naming::AppName& app) const {
  if (hierarchical_ && self_.enrolled_) return true;
  return dir_.lookup(app).has_value();
}

naming::Address Resolver::parent() const {
  naming::Address anchor{self_.address_.region, cfg_.dir_anchor_node};
  if (self_.address_ != anchor) return anchor;
  if (!cfg_.dir_root.is_null() && self_.address_ != cfg_.dir_root)
    return cfg_.dir_root;
  return naming::Address{};  // I am the top of the chain
}

std::optional<naming::Address> Resolver::resolve(const naming::AppName& app,
                                                 ResolveCb* waiter) {
  auto answer = [waiter](std::optional<naming::Address> at) {
    if (waiter != nullptr) (*waiter)(at);
    return at;
  };
  if (auto at = dir_.lookup(app)) return answer(at);
  if (!hierarchical_ || !self_.enrolled_) return answer(std::nullopt);
  auto it = pending_.find(app);
  // The allocator polls; while a query is in flight, it just misses
  // quietly (one counted cache miss per query cycle, not per poll).
  if (waiter == nullptr && it != pending_.end()) return std::nullopt;
  std::optional<naming::Address> at = cache_.lookup(app, self_.sched().now());
  stats_.inc(at ? "dir_cache_hits" : "dir_cache_misses");
  // A hit, or an authoritative miss: nobody above me to ask.
  if (at || parent().is_null()) return answer(at);
  const bool fresh = it == pending_.end();
  if (fresh) it = pending_.try_emplace(app).first;
  it->second.cbs.push_back(waiter != nullptr ? std::move(*waiter) : ResolveCb{});
  if (fresh) send_query(app);  // one query in flight per name
  return std::nullopt;
}

void Resolver::send_query(const naming::AppName& app) {
  auto it = pending_.find(app);
  if (it == pending_.end()) return;
  PendingResolve& pr = it->second;
  if (pr.attempts >= kMaxDirQueryAttempts) {
    finish_query(app, std::nullopt);
    return;
  }
  ++pr.attempts;
  stats_.inc("dir_queries_sent");
  BufWriter w(8 + app.to_string().size());
  put_addr(w, self_.address_);
  put_app(w, app);
  self_.send_routed_mgmt(parent(), riep_msg(rib::RiepOp::read, dir_obj(app),
                                            kClsDirRead, std::move(w).take()));
  pr.timer =
      self_.sched().schedule_after(kDirQueryRetry, [this, app] { send_query(app); });
}

void Resolver::finish_query(const naming::AppName& app,
                            std::optional<naming::Address> result) {
  auto it = pending_.find(app);
  if (it == pending_.end()) return;
  it->second.timer.cancel();
  std::vector<ResolveCb> cbs = std::move(it->second.cbs);
  pending_.erase(it);
  for (auto& cb : cbs)
    if (cb) cb(result);
}

void Resolver::send_targeted_update(const naming::AppName& app, std::uint8_t op) {
  rib::RiepMessage m = update_msg(app, op);
  stats_.inc("dir_targeted_updates");
  naming::Address anchor{self_.address_.region, cfg_.dir_anchor_node};
  if (anchor != self_.address_ && !anchor.is_null()) self_.send_routed_mgmt(anchor, m);
  if (!cfg_.dir_root.is_null() && cfg_.dir_root != self_.address_ &&
      cfg_.dir_root != anchor)
    self_.send_routed_mgmt(cfg_.dir_root, m);
}

void Resolver::cascade_inval(const naming::AppName& app, naming::Address at) {
  if (cache_.invalidate_if_at(app, at)) stats_.inc("dir_cache_invalidations");
  auto it = interest_.find(app);
  if (it == interest_.end()) return;
  // Interest older than the cache TTL cannot correspond to a live
  // cached entry any more — let it age out silently.
  SimTime now = self_.sched().now();
  for (const auto& [who, when] : it->second) {
    if (now - when >= cfg_.dir_cache_ttl || who == self_.address_) continue;
    BufWriter w(16 + app.to_string().size());
    put_addr(w, self_.address_);
    w.put_u64(++seq_);
    put_app(w, app);
    put_addr(w, at);
    stats_.inc("dir_invals_originated");
    self_.send_routed_mgmt(who, riep_msg(rib::RiepOp::remove, dir_obj(app),
                                         kClsDirInval, std::move(w).take()));
  }
  interest_.erase(it);
}

void Resolver::handle_inval(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address origin = get_addr(r);
  std::uint64_t seq = r.get_u64();
  naming::AppName app = get_app(r);
  naming::Address at = get_addr(r);
  if (!r.ok() || origin.is_null() || origin == self_.address_) return;
  // Invalidations share the origin's DirUpd sequence space, so one seen
  // set covers both kinds.
  if (seen(origin, seq)) return;
  // Drop a stale authoritative binding too — unless a newer
  // registration already replaced it.
  if (dir_.lookup(app) == std::optional<naming::Address>{at}) dir_.remove(app);
  // Kill the local cached copy and pass the invalidation further down
  // the query tree (whoever resolved through this node).
  cascade_inval(app, at);
}

void Resolver::handle_read(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address requester = get_addr(r);
  naming::AppName app = get_app(r);
  if (!r.ok() || requester.is_null() || requester == self_.address_) return;
  stats_.inc("dir_queries_served");
  // Remember who asked: a later mobility event invalidates exactly these
  // caches instead of flooding. Bounded per name; oldest interest falls
  // off first (its cache entry expires by TTL anyway).
  auto& interest = interest_[app];
  interest[requester] = self_.sched().now();
  if (interest.size() > kMaxDirInterest) {
    auto oldest = interest.begin();
    for (auto iit = interest.begin(); iit != interest.end(); ++iit)
      if (iit->second < oldest->second) oldest = iit;
    interest.erase(oldest);
  }
  // Resolve locally or escalate up my own chain; either way the reply
  // goes back to the immediate requester, which caches it — so an
  // answer warms every hop on its way down.
  ResolveCb reply = [this, requester, app](std::optional<naming::Address> at) {
    BufWriter w(16 + app.to_string().size());
    put_app(w, app);
    w.put_u8(at ? 1 : 0);
    put_addr(w, at ? *at : naming::Address{});
    self_.send_routed_mgmt(requester, riep_msg(rib::RiepOp::reply, dir_obj(app),
                                               kClsDirReadReply, std::move(w).take()));
  };
  (void)resolve(app, &reply);
}

void Resolver::handle_read_reply(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::AppName app = get_app(r);
  std::uint8_t found = r.get_u8();
  naming::Address at = get_addr(r);
  if (!r.ok()) return;
  std::optional<naming::Address> res;
  if (found != 0 && !at.is_null()) {
    res = at;
    cache_.insert(app, at, self_.sched().now());
  }
  finish_query(app, res);
}

}  // namespace rina::ipcp
