// test_link_state — the routing component on its own (no DIF): seeded
// random link-state traffic (joins, flaps, withdrawals, late and stale
// records) fed to an incremental and a full engine must leave both FIBs
// with the same destinations and next-hop sets after every batch, flat
// and under region aggregation, also when one edge changes twice
// between two runs. Then one DIF-level check of the pairing
// no other suite runs: delta sync (so incremental repair) plus
// aggregate_regions still carries traffic across regions after a flap.
#include "routing/link_state.hpp"

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "node/network.hpp"
#include "test_util.hpp"

using namespace rina;
using naming::Address;

namespace {

using Rows = std::map<Address, std::vector<Address>>;

/// Delta sync is what makes routing incremental.
dif::DifConfig config(bool delta_sync, bool aggregate) {
  dif::DifConfig cfg;
  cfg.rib_delta_sync = delta_sync;
  cfg.aggregate_regions = aggregate;
  return cfg;
}

/// A FIB as destination -> sorted next-hop set. The full driver keeps
/// Dijkstra's discovery order and a repair sorts, so only sets compare.
Rows rows(const relay::ForwardingTable& fib) {
  Rows out;
  for (const auto& [dest, hops] : fib.routes()) {
    std::vector<Address> h = hops;
    std::sort(h.begin(), h.end());
    out[dest] = std::move(h);
  }
  return out;
}

struct Lsu {
  Address origin;
  std::uint64_t seq;
  std::vector<Address> neighbors;
};

/// A DIF's true topology over 3 regions x 12 member slots, as the
/// records its members originate. Records are queued, not delivered:
/// each batch hands a random subset over in random order, so some
/// arrive late and some behind a newer one (stale).
class Topology {
 public:
  explicit Topology(std::uint32_t seed) : rng_(seed) {
    for (std::uint16_t r = 1; r <= 3; ++r)
      for (std::uint16_t n = 1; n <= 12; ++n) slots_.push_back(Address{r, n});
    // Start with two thirds present: a chain through everyone plus chords.
    for (const Address& a : slots_)
      if (a == kSelf || rng_() % 3 != 0) present_.insert(a);
    std::vector<Address> p(present_.begin(), present_.end());
    for (std::size_t i = 1; i < p.size(); ++i) link(p[i - 1], p[i]);
    for (int i = 0; i < 20; ++i) link(pick(), pick());
    for (const Address& a : present_) originate(a);
  }

  static constexpr Address kSelf{1, 1};

  /// One random event: a flap down or up, a join, or a withdrawal.
  void step() {
    switch (rng_() % 4) {
      case 0: {  // a link goes down
        Address a = pick();
        if (adj_[a].empty()) return;
        auto it = adj_[a].begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng_() % adj_[a].size()));
        Address b = *it;
        adj_[a].erase(b);
        adj_[b].erase(a);
        originate(a);
        originate(b);
        return;
      }
      case 1: {  // a link comes (back) up
        Address a = pick(), b = pick();
        if (link(a, b)) {
          originate(a);
          originate(b);
        }
        return;
      }
      case 2: {  // a member joins on one or two wires
        std::vector<Address> absent;
        for (const Address& a : slots_)
          if (present_.count(a) == 0) absent.push_back(a);
        if (absent.empty()) return;
        Address j = absent[rng_() % absent.size()];
        Address to = pick();
        present_.insert(j);
        link(j, to);
        originate(to);
        if (rng_() % 2 == 0) {
          Address to2 = pick();
          if (link(j, to2)) originate(to2);
        }
        originate(j);
        return;
      }
      default: {  // a member withdraws: an empty record, then silence
        Address w = pick();
        if (w == kSelf) return;
        std::vector<Address> was(adj_[w].begin(), adj_[w].end());
        for (const Address& n : was) adj_[n].erase(w);
        adj_[w].clear();
        originate(w);
        for (const Address& n : was) originate(n);
        present_.erase(w);
        return;
      }
    }
  }

  /// Hand over a random subset of the queued records, shuffled.
  std::vector<Lsu> deliver() {
    std::shuffle(queue_.begin(), queue_.end(), rng_);
    std::size_t n = queue_.empty() ? 0 : 1 + rng_() % queue_.size();
    std::vector<Lsu> out(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(n));
    // Now and then a record arrives a second time, long after.
    if (!out.empty() && rng_() % 3 == 0) queue_.push_back(out.front());
    return out;
  }

  /// My live adjacency, ascending (what Ipcp::neighbor_set reports).
  std::vector<Address> mine() { return {adj_[kSelf].begin(), adj_[kSelf].end()}; }

 private:
  Address pick() {
    auto it = present_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_() % present_.size()));
    return *it;
  }
  bool link(Address a, Address b) {
    if (a == b || adj_[a].count(b) != 0) return false;
    adj_[a].insert(b);
    adj_[b].insert(a);
    return true;
  }
  void originate(Address a) {
    if (a == kSelf) return;  // my adjacency reaches routing through run()
    queue_.push_back(Lsu{a, ++seq_[a], {adj_[a].begin(), adj_[a].end()}});
  }

  std::mt19937 rng_;
  std::vector<Address> slots_;
  std::set<Address> present_;
  std::map<Address, std::set<Address>> adj_;
  std::map<Address, std::uint64_t> seq_;
  std::vector<Lsu> queue_;
};

/// Drive one incremental and one full engine through `batches` batches
/// of random topology events; after each batch both FIBs must agree.
void engines_agree(std::uint32_t seed, bool aggregate, int batches) {
  Topology topo(seed);
  Stats inc_stats, full_stats;
  routing::LinkState inc(config(true, aggregate), inc_stats);
  routing::LinkState full(config(false, aggregate), full_stats);
  relay::ForwardingTable inc_fib, full_fib;
  const Address self = Topology::kSelf;
  int stale = 0;
  for (int b = 0; b < batches; ++b) {
    int events = 1 + static_cast<int>(seed % 3) + b % 4;
    for (int e = 0; e < events; ++e) topo.step();
    for (Lsu& u : topo.deliver()) {
      bool took = inc.learn(u.origin, u.seq, u.neighbors);
      CHECK(full.learn(u.origin, u.seq, u.neighbors) == took);
      stale += took ? 0 : 1;
    }
    inc.run(self, topo.mine(), inc_fib);
    full.run(self, topo.mine(), full_fib);
    Rows want = rows(full_fib);
    CHECK(rows(inc_fib) == want);
    if (aggregate) {
      // One entry per foreign region, never one per foreign member.
      for (const auto& [dest, hops] : want)
        CHECK(dest.region == self.region || dest.node == 0);
    }
  }
  CHECK(stale > 0);  // late and repeated records did arrive
  // The incremental engine repaired (and skipped) rather than recomputed,
  // and touched fewer vertices for it.
  CHECK(inc_stats.get("spf_full_runs") == 1);
  CHECK(inc_stats.get("spf_incremental_runs") > 0);
  CHECK(inc_stats.get("spf_skipped") > 0);
  CHECK(full_stats.get("spf_runs") == static_cast<std::uint64_t>(batches));
  CHECK(inc_stats.get("spf_vertices_recomputed") <
        full_stats.get("spf_vertices_recomputed"));
}

}  // namespace

static void incremental_matches_full_flat() {
  for (std::uint32_t seed = 1; seed <= 6; ++seed) engines_agree(seed, false, 60);
}

static void incremental_matches_full_aggregated() {
  for (std::uint32_t seed = 11; seed <= 16; ++seed) engines_agree(seed, true, 60);
}

static void learn_takes_only_newer_records() {
  Stats st;
  routing::LinkState ls(config(true, false), st);
  const Address a{1, 2}, b{1, 3};
  CHECK(ls.learn(a, 2, {b}));
  CHECK(!ls.learn(a, 2, {}));  // duplicate
  CHECK(!ls.learn(a, 1, {}));  // stale
  CHECK(ls.seq_of(a) == 2);
  CHECK(ls.lsdb().find(a)->second.neighbors == std::vector<Address>{b});
  CHECK(ls.is_newer(a, 3) && !ls.is_newer(a, 2) && ls.is_newer(b, 1));
  // My own record counts up from 1 and is held like any other.
  CHECK(ls.originate(Address{1, 1}, {a}) == 1);
  CHECK(ls.originate(Address{1, 1}, {a, b}) == 2);
  CHECK(ls.seq_of(Address{1, 1}) == 2 && ls.lsdb().size() == 2);
}

static void flap_inside_one_debounce_leaves_no_phantom_route() {
  // b's wire to c comes up and goes down again before the next run: the
  // repair must see no change at all, not a new edge plus a removal.
  Stats st;
  routing::LinkState ls(config(true, false), st);
  relay::ForwardingTable fib;
  const Address a{1, 1}, b{1, 2}, c{1, 3};
  CHECK(ls.learn(b, 1, {a}));
  ls.run(a, {b}, fib);
  CHECK(ls.learn(b, 2, {a, c}));
  CHECK(ls.learn(b, 3, {a}));
  ls.run(a, {b}, fib);
  CHECK(rows(fib) == (Rows{{b, {b}}}));
  CHECK(st.get("spf_skipped") == 1);
}

static void delta_sync_aggregated_dif_reroutes_across_regions() {
  // Three regions of an anchor and two spokes; the anchors form a
  // triangle. Delta sync makes every member repair incrementally, and
  // aggregation leaves one FIB entry per foreign region. Killing a1-a2
  // must move region 1's wildcard for region 2 onto the way round a3.
  node::Network net(53);
  const naming::DifName dif{"agg"};
  node::DifSpec s;
  s.cfg.name = dif;
  s.cfg.rib_delta_sync = true;
  s.cfg.aggregate_regions = true;
  s.cfg.rib_sync_interval = SimTime::from_ms(50);
  auto anchor = [](int r) { return "a" + std::to_string(r); };
  auto spoke = [](int r, int k) { return "s" + std::to_string(r) + "_" + std::to_string(k); };
  for (int r = 1; r <= 3; ++r) {
    auto reg = static_cast<std::uint16_t>(r);
    s.members.push_back(anchor(r));
    s.addresses[anchor(r)] = Address{reg, 1};
    for (int k = 1; k <= 2; ++k) {
      net.add_link(anchor(r), spoke(r, k));
      s.members.push_back(spoke(r, k));
      s.addresses[spoke(r, k)] = Address{reg, static_cast<std::uint16_t>(k + 1)};
    }
    net.add_link(anchor(r), anchor(r % 3 + 1));
  }
  CHECK(net.build_link_dif(s).ok());
  net.run_for(SimTime::from_ms(100));

  int got = 0;
  CHECK(net.node(spoke(2, 1))
            .register_app(naming::AppName("srv"), dif,
                          [&](flow::Flow f) {
                            f.on_readable([&got](flow::Flow& fl) {
                              while (fl.read()) ++got;
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(200));
  flow::Flow f = net.node(spoke(1, 1)).allocate_flow(
      naming::AppName("cli"), naming::AppName("srv"), flow::QosSpec::reliable_default());
  CHECK(net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(5)));
  CHECK(f.is_open());
  CHECK(f.write(BytesView{to_bytes("before")}).ok());
  net.run_for(SimTime::from_ms(200));
  CHECK(got == 1);

  auto* a1 = net.node(anchor(1)).ipcp(dif);
  const std::uint64_t repairs = net.sum_dif_counter(dif, "spf_incremental_runs");
  CHECK(net.set_link_state(anchor(1), anchor(2), false).ok());
  net.run_for(SimTime::from_ms(300));
  CHECK(net.sum_dif_counter(dif, "spf_incremental_runs") > repairs);
  const Address a3 = net.node(anchor(3)).ipcp(dif)->address();
  auto route = a1->rmt().fib().routes().find(Address{2, 0});
  CHECK(route != a1->rmt().fib().routes().end() &&
        route->second == std::vector<Address>{a3});
  CHECK(f.write(BytesView{to_bytes("after")}).ok());
  net.run_for(SimTime::from_sec(1));
  CHECK(got == 2);

  // Every member's FIB: its own region in full, one wildcard per other.
  for (const std::string& m : s.members) {
    auto* p = net.node(m).ipcp(dif);
    std::set<std::uint16_t> wildcards;
    for (const auto& [dest, hops] : p->rmt().fib().routes()) {
      CHECK(dest.region == p->address().region || dest.node == 0);
      if (dest.node == 0) wildcards.insert(dest.region);
    }
    CHECK(wildcards.size() == 2);
  }
}

int main() {
  learn_takes_only_newer_records();
  flap_inside_one_debounce_leaves_no_phantom_route();
  incremental_matches_full_flat();
  incremental_matches_full_aggregated();
  delta_sync_aggregated_dif_reroutes_across_regions();
  return TEST_MAIN_RESULT();
}
