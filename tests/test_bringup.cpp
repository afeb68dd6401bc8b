// test_bringup — a DIF build ends when the DIF's own management goes
// quiet, not after a fixed time. Each case checks when build_link_dif /
// build_overlay_dif return (simulated time) and that the DIF is actually
// ready then: every member routes to every other, its LSDB is complete,
// and a flow opens on the first request. A DIF that never goes quiet
// returns at exactly its cap (100 ms for link DIFs).
#include "node/network.hpp"

#include <string>
#include <vector>

#include "test_util.hpp"

using namespace rina;
using node::Network;

namespace {

const SimTime kLinkCap = SimTime::from_ms(100);
const SimTime kOverlayCap = SimTime::from_ms(400);

node::DifSpec spec(const std::string& name, std::vector<std::string> members) {
  node::DifSpec s;
  s.cfg.name = naming::DifName{name};
  s.members = std::move(members);
  return s;
}

/// Build and return how long (simulated) the build took.
SimTime timed_build(Network& net, node::DifSpec s) {
  SimTime t0 = net.now();
  CHECK(net.build_link_dif(std::move(s)).ok());
  return net.now() - t0;
}

/// Every member routes to every other member and holds every member's
/// link-state record.
void check_converged(Network& net, const std::string& dif,
                     const std::vector<std::string>& members) {
  for (const auto& m : members) {
    ipcp::Ipcp* p = net.node(m).ipcp(naming::DifName{dif});
    CHECK(p != nullptr);
    if (p == nullptr) continue;
    CHECK(p->lsdb_size() == members.size());
    for (const auto& other : members) {
      if (other == m) continue;
      naming::Address to = net.node(other).ipcp(naming::DifName{dif})->address();
      CHECK(p->rmt().fib().lookup(to, [p](relay::PortIndex i) {
        return p->port_up(i);
      }).has_value());
    }
  }
}

/// Register `app` on `at`, let the directory entry spread for `spread`,
/// then allocate from `from`. The flow must open before the allocator's
/// first directory retry (10 ms) could have fired: no retry was needed.
void check_first_try_flow(Network& net, const std::string& dif,
                          const std::string& from, const std::string& at,
                          SimTime spread) {
  CHECK(net.node(at)
            .register_app(naming::AppName("sink"), naming::DifName{dif},
                          [](flow::Flow) {})
            .ok());
  net.run_for(spread);
  SimTime t0 = net.now();
  flow::Flow f = net.node(from).allocate_flow_on(
      naming::DifName{dif}, naming::AppName("src"), naming::AppName("sink"),
      flow::QosSpec{});
  CHECK(net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(1)));
  CHECK(f.is_open());
  CHECK(net.now() - t0 < SimTime::from_ms(10));
}

std::vector<std::string> star(Network& net, int leaves, const node::LinkOpts& o) {
  std::vector<std::string> members{"hub"};
  for (int i = 1; i <= leaves; ++i) {
    std::string leaf = "leaf" + std::to_string(i);
    net.add_link("hub", leaf, o);
    members.push_back(leaf);
  }
  return members;
}

// A 10-node keepalive star is ready in one SPF debounce plus a couple of
// wire round trips, not 100 ms.
void keepalive_star_settles_fast() {
  Network net(1);
  auto members = star(net, 9, {});
  node::DifSpec s = spec("ka", members);
  s.cfg.keepalive_enabled = true;
  SimTime took = timed_build(net, std::move(s));
  CHECK(took <= SimTime::from_ms(20));
  check_converged(net, "ka", members);
  check_first_try_flow(net, "ka", "leaf1", "leaf9", SimTime::from_ms(2));
}

// One slow spoke comes up after the fast ones have flooded their LSUs.
// The new adjacency must carry the LSDB across (a flood that predates a
// wire never crosses it), so the slow leaf learns the whole star and the
// star learns everything the slow leaf sends back.
void slow_spoke_gets_lsdb() {
  Network net(2);
  auto members = star(net, 5, {});
  node::LinkOpts slow;
  slow.delay = SimTime::from_ms(10);
  net.add_link("hub", "slow", slow);
  net.add_link("slow", "tail", {});  // behind the slow leaf
  members.push_back("slow");
  members.push_back("tail");
  SimTime took = timed_build(net, spec("st", members));
  CHECK(took < kLinkCap);
  check_converged(net, "st", members);
}

/// The express shape: disconnected member pairs over long wires.
std::vector<std::string> express_pairs(Network& net, int pairs) {
  std::vector<std::string> members;
  for (int p = 0; p < pairs; ++p) {
    std::string a = "x" + std::to_string(p) + "a";
    std::string b = "x" + std::to_string(p) + "b";
    node::LinkOpts o;
    o.delay = SimTime::from_ms(5 + p % 4);
    net.add_link(a, b, o);
    members.push_back(a);
    members.push_back(b);
  }
  return members;
}

void disconnected_pairs_settle_before_cap() {
  Network net(3);
  auto members = express_pairs(net, 6);
  SimTime took = timed_build(net, spec("express", members));
  // Hello one way, LSU back, then the 8 ms SPF debounce: ~25 ms on 8 ms
  // wires.
  CHECK(took < SimTime::from_ms(40));
  for (std::size_t i = 0; i < members.size(); i += 2)
    check_converged(net, "express", {members[i], members[i + 1]});
}

// On a long wire the LSU is still on the wire after the SPF debounce
// has fired: no timer is armed, yet the build must wait for the PDU.
void long_wire_waits_for_lsu() {
  Network net(8);
  node::LinkOpts o;
  o.delay = SimTime::from_ms(30);
  net.add_link("a", "b", o);
  SimTime took = timed_build(net, spec("long", {"a", "b"}));
  // Hellos land at 30 ms, LSUs leave at 31 ms and land at 61 ms, and the
  // SPF they schedule runs at 69 ms.
  CHECK(took > SimTime::from_ms(61));
  CHECK(took < kLinkCap);
  check_converged(net, "long", {"a", "b"});
}

// A management PDU the RMT tail-drops is settled, not in flight: a drop
// must not hold the build to its cap.
void dropped_mgmt_does_not_stall() {
  Network net(9);
  node::LinkOpts thin;
  thin.rate_bps = 2e5;  // an LSU takes ~4 ms to serialize
  thin.queue_pkts = 1;
  auto members = star(net, 6, thin);
  node::DifSpec s = spec("thin", members);
  s.cfg.rmt_queue_pdus = 1;
  SimTime took = timed_build(net, std::move(s));
  std::uint64_t dropped = 0;
  for (const auto& m : members)
    dropped += net.node(m).ipcp(naming::DifName{"thin"})->mgmt_dropped();
  CHECK(dropped > 0);
  CHECK(took < kLinkCap);
}

// The same shape on a sharded Network, each pair split across two
// shards: bring-up ends at the same simulated time at any worker count.
SimTime sharded_pairs_took(int threads) {
  Network net(4);
  net.enable_sharding(2, threads, 64);
  for (int p = 0; p < 6; ++p) net.assign_shard("x" + std::to_string(p) + "b", 1);
  auto members = express_pairs(net, 6);
  SimTime took = timed_build(net, spec("express", members));
  for (std::size_t i = 0; i < members.size(); i += 2)
    check_converged(net, "express", {members[i], members[i + 1]});
  return took;
}

void sharded_pairs_settle_alike() {
  SimTime one = sharded_pairs_took(1);
  CHECK(one < SimTime::from_ms(40));
  CHECK(one == sharded_pairs_took(2));
  CHECK(one == sharded_pairs_took(4));
}

// A DIF that never goes quiet runs to its cap, exactly as a fixed run
// did: (a) a carrier-up port to a peer that never enrolls, so it never
// answers; (b) a wire that loses every frame.
void never_quiet_runs_to_cap() {
  {
    Network net(5);
    auto members = star(net, 3, {});
    net.add_link("hub", "mute");
    dif::DifConfig cfg;
    cfg.name = naming::DifName{"m"};
    net.node("hub").create_ipcp(cfg);
    net.node("mute").create_ipcp(cfg);  // never enrolled
    CHECK(net.wire_ipcps(cfg.name, "hub", "mute").ok());
    CHECK(timed_build(net, spec("m", members)) == kLinkCap);
    check_converged(net, "m", members);  // the rest still converged
  }
  {
    Network net(6);
    node::LinkOpts lossy;
    sim::GilbertElliottLoss::Params all_lost;
    all_lost.loss_good = 1.0;
    lossy.gilbert_elliott = all_lost;
    net.add_link("a", "b", lossy);
    CHECK(timed_build(net, spec("l", {"a", "b"})) == kLinkCap);
  }
}

// stack_bulk's shape, scaled down: access DIFs on both sides, a segment
// DIF on the middle wire, and an end-to-end overlay riding all three.
void three_level_overlay_settles_before_cap() {
  Network net(7);
  const int pairs = 3;
  std::vector<std::string> left{"r1"}, right{"r2"}, all{"r1", "r2"};
  for (int i = 0; i < pairs; ++i) {
    std::string h = "h" + std::to_string(i), s = "s" + std::to_string(i);
    net.add_link(h, "r1");
    net.add_link("r2", s);
    left.push_back(h);
    right.push_back(s);
    all.push_back(h);
    all.push_back(s);
  }
  node::LinkOpts mid;
  mid.delay = SimTime::from_ms(2);
  net.add_link("r1", "r2", mid);
  CHECK(timed_build(net, spec("left", left)) < kLinkCap);
  CHECK(timed_build(net, spec("right", right)) < kLinkCap);
  CHECK(timed_build(net, spec("seg", {"r1", "r2"})) < kLinkCap);

  std::vector<Network::OverlayAdj> adjs;
  adjs.push_back({"r1", "r2", naming::DifName{"seg"}, flow::QosSpec::reliable_default()});
  for (int i = 0; i < pairs; ++i) {
    adjs.push_back({"h" + std::to_string(i), "r1", naming::DifName{"left"}, {}});
    adjs.push_back({"r2", "s" + std::to_string(i), naming::DifName{"right"}, {}});
  }
  SimTime t0 = net.now();
  CHECK(net.build_overlay_dif(spec("e2e", all), std::move(adjs)).ok());
  CHECK(net.now() - t0 < kOverlayCap);
  check_converged(net, "e2e", all);
  check_first_try_flow(net, "e2e", "h0", "s2", SimTime::from_ms(10));
}

}  // namespace

int main() {
  keepalive_star_settles_fast();
  slow_spoke_gets_lsdb();
  disconnected_pairs_settle_before_cap();
  long_wire_waits_for_lsu();
  dropped_mgmt_does_not_stall();
  sharded_pairs_settle_alike();
  never_quiet_runs_to_cap();
  three_level_overlay_settles_before_cap();
  return TEST_MAIN_RESULT();
}
