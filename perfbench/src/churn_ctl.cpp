// churn_ctl — the control plane under churn, with almost no data.
//
// The c9 delta + hierarchical arrangement at 1,008 members: one DIF of
// 21 regions x 48 nodes (an anchor and 47 spokes per region, anchors in
// a ring), versioned delta RIB sync, incremental SPF and hierarchical
// directory resolution with TTL caches. 42 named apps live on seeded
// spokes. The measured phase runs a churn script (4 seeded app moves and
// 4 flaps of fixed wires, one event every 100 ms) while 32 closed-loop client slots
// complete 10,500 name resolutions (10,000 latency samples with room
// for a few counted failures). Each resolution allocates a flow by
// name from spoke 1 of a region two to four hops around the ring from
// the app's home (rotating per slot), so cold query-up walks mix with
// warm cache hits; a third repeat the slot's previous target.
//
// Clients never target an app mid-move, the script never moves an app a
// client is resolving, and flaps hit only spokes that host no app and no
// client, so every failure the run counts is the stack's, not the
// script's: a not-found, a timeout, or a move that never converges.
//
// Operations: resolutions, moves and flaps. Latency: allocation-by-name
// time (allocate_flow_on until open). converge_ms: mean time from a
// move's re-registration until the region anchor and the root both
// serve the new binding.
#include <deque>
#include <functional>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kRegions = 21;
constexpr int kPerRegion = 48;  // anchor + 47 spokes
constexpr int kAppsPerRegion = 2;
constexpr int kApps = kRegions * kAppsPerRegion;
constexpr int kSlots = 32;
constexpr std::uint64_t kResolutions = 10500;
constexpr int kChurnEvents = 8;  // alternating move, flap
const SimTime kChurnEvery = SimTime::from_ms(100);
const SimTime kFlapDownFor = SimTime::from_ms(60);
const SimTime kResolveTimeout = SimTime::from_sec(2);
const SimTime kConvergeProbe = SimTime::from_us(100);
const SimTime kConvergeTimeout = SimTime::from_sec(2);
const naming::DifName kDif{"ctl"};

std::string anchor(int r) { return "a" + std::to_string(r); }
std::string spoke(int r, int m) { return "n" + std::to_string(r) + "_" + std::to_string(m); }
naming::AppName svc(int i) { return naming::AppName{"svc" + std::to_string(i)}; }

struct Home {
  int region = 0;
  int idx = 2;  // spoke index, >= 2 (spoke 1 hosts the clients)
};

struct Slot {
  int id = 0;
  std::uint64_t serial = 0;  // bumps per resolution; stale callbacks check it
  bool busy = false;
  int target = -1;
  int prev_target = -1;
  SimTime t0{};
  flow::Flow f;
  sim::Timer timeout;
};

}  // namespace

Round run_churn_ctl(const Ctx& ctx) {
  Round out;
  // The ring's delays and the flapped wires are part of the workload, not
  // of its input: fixed across seeds. Heterogeneous delays reorder LSU
  // floods, which sends delta sync into thousands of snapshot fallbacks
  // per flap (README.md), and how many depends on the wire that flaps;
  // fixing both keeps that cost alike for every seed.
  Rng wires(0xc9c9c9);
  Rng topo = stream(ctx.seed, 1);
  Rng script = stream(ctx.seed, 2);
  Rng clients = stream(ctx.seed, 3);

  Stopwatch setup;
  node::Network net(ctx.seed);
  node::DifSpec spec;
  spec.cfg.name = kDif;
  spec.cfg.rib_delta_sync = true;
  spec.cfg.incremental_spf = true;
  spec.cfg.rib_sync_interval = SimTime::from_sec(1);
  spec.cfg.rib_digest_budget = 32;
  spec.cfg.dir_hierarchical = true;
  spec.cfg.dir_root = naming::Address{1, 1};
  spec.cfg.dir_cache_ttl = SimTime::from_sec(5);
  std::map<std::string, naming::Address> addr;
  for (int r = 0; r < kRegions; ++r) {
    auto reg = static_cast<std::uint16_t>(r + 1);
    spec.members.push_back(anchor(r));
    addr[anchor(r)] = naming::Address{reg, 1};
    for (int m = 1; m < kPerRegion; ++m) {
      net.add_link(anchor(r), spoke(r, m));  // c9's wire: 1 Gb/s, 50 us
      spec.members.push_back(spoke(r, m));
      addr[spoke(r, m)] = naming::Address{reg, static_cast<std::uint16_t>(m + 1)};
    }
    node::LinkOpts ring;
    ring.delay = wires.between(SimTime::from_us(20), SimTime::from_us(200));
    net.add_link(anchor(r), anchor((r + 1) % kRegions), ring);
  }
  spec.addresses = addr;
  const std::vector<std::string> members = spec.members;
  {
    PB_SPAN("node.build_link_dif");
    SimTime t0 = net.now();
    auto res = net.build_link_dif(std::move(spec));
    out.extra["node.build_sim_ms"] += (net.now() - t0).to_ms();
    out.extra["node.build_calls"] += 1;
    if (!res.ok()) out.fail_check("build_link_dif: " + res.error().to_string());
  }
  {
    PB_SPAN("sim.run");
    net.run_for(SimTime::from_ms(600));
  }

  auto home_node = [](const Home& h) { return spoke(h.region, h.idx); };
  auto accept = [](flow::Flow f) {
    f.on_readable([](flow::Flow& fl) {
      while (fl.read()) {
      }
    });
  };
  std::vector<Home> home(kApps);
  std::vector<int> apps_on(static_cast<std::size_t>(kRegions * kPerRegion), 0);
  auto slot_of = [](const Home& h) { return h.region * kPerRegion + h.idx; };
  for (int i = 0; i < kApps; ++i) {
    home[i] = {i % kRegions, 2 + static_cast<int>(topo.below(kPerRegion - 2))};
    ++apps_on[static_cast<std::size_t>(slot_of(home[i]))];
    PB_SPAN("node.register_app");
    if (auto r = net.node(home_node(home[i])).register_app(svc(i), kDif, accept); !r.ok())
      out.fail_check("register_app: " + r.error().to_string());
  }
  {
    PB_SPAN("sim.run");
    net.run_for(SimTime::from_ms(300));
  }
  out.setup_s = setup.s();
  out.nodes = kRegions * kPerRegion;

  std::vector<ipcp::Ipcp*> ipcps;
  collect_ipcps(net, kDif, members, ipcps);
  out.at_setup = read_counters(net, ipcps);

  // ---------------------------------------------------------- measure
  Tracer::Scope measure_span("bench.measure");
  Stopwatch measure;
  const SimTime start = net.now();
  sim::Scheduler& sched = net.sched();

  std::vector<bool> moving(kApps, false);
  std::vector<int> resolving(kApps, 0);  // in-flight resolutions per app
  std::uint64_t started = 0, done = 0, res_failed = 0;
  std::vector<Slot> slots(kSlots);
  std::vector<flow::Flow> spent;  // earlier flows; their hooks are cleared at the end

  std::function<void(Slot&)> start_resolution;
  auto finish = [&](Slot& s, std::uint64_t serial, bool ok) {
    if (!s.busy || s.serial != serial) return;  // stale edge of an earlier flow
    s.busy = false;
    s.timeout.cancel();
    --resolving[static_cast<std::size_t>(s.target)];
    ++done;
    if (ok) out.lat_ms.add((net.now() - s.t0).to_ms());
    else ++res_failed;
    // Release and go again from a fresh event, outside the flow's hooks.
    sched.post_at(net.now(), [&s, &start_resolution] {
      {
        PB_SPAN("flow.deallocate", s.serial);
        s.f.deallocate();
      }
      start_resolution(s);
    });
  };
  start_resolution = [&](Slot& s) {
    if (started >= kResolutions) return;
    ++started;
    int target = s.prev_target;
    if (target < 0 || moving[static_cast<std::size_t>(target)] || clients.below(3) != 0) {
      do {
        target = static_cast<int>(clients.below(kApps));
      } while (moving[static_cast<std::size_t>(target)]);
    }
    s.target = s.prev_target = target;
    ++resolving[static_cast<std::size_t>(target)];
    const int client_region =
        (home[static_cast<std::size_t>(target)].region + 2 + s.id % 3) % kRegions;
    const std::uint64_t serial = ++s.serial;
    if (s.f.valid()) spent.push_back(s.f);
    s.busy = true;
    s.t0 = net.now();
    {
      PB_SPAN("flow.allocate", started);
      s.f = net.node(spoke(client_region, 1))
                .allocate_flow_on(kDif, naming::AppName{"cli" + std::to_string(s.id)},
                                  svc(target), flow::QosSpec{});
    }
    // A write while allocating is refused and arms on_writable, which
    // fires once the flow opens; failure closes it instead.
    s.f.on_writable([&finish, &s, serial](flow::Flow&) { finish(s, serial, true); });
    s.f.on_closed([&finish, &s, serial](flow::Flow&) { finish(s, serial, false); });
    (void)s.f.write(BytesView{});
    if (s.busy && s.serial == serial)
      s.timeout = sched.schedule_after(kResolveTimeout,
                                       [&finish, &s, serial] { finish(s, serial, false); });
  };

  // Churn script: event k at start + (k+1) * kChurnEvery; even = move,
  // odd = flap. Picks are drawn when the event fires.
  std::uint64_t moves = 0, flaps = 0, churn_failed = 0, converged = 0;
  double converge_sum_ms = 0;
  std::deque<sim::Timer> probes;  // one convergence probe per move
  int down_region = -1, down_idx = -1;
  auto do_move = [&] {
    int i = 0;
    do {
      i = static_cast<int>(script.below(kApps));
    } while (moving[static_cast<std::size_t>(i)] || resolving[static_cast<std::size_t>(i)] > 0);
    ++moves;
    moving[static_cast<std::size_t>(i)] = true;
    Home& h = home[static_cast<std::size_t>(i)];
    {
      PB_SPAN("naming.unregister_app", static_cast<std::uint64_t>(i) + 1);
      if (!net.node(home_node(h)).ipcp(kDif)->fa().unregister_app(svc(i)).ok()) {
        ++churn_failed;
        return;
      }
    }
    --apps_on[static_cast<std::size_t>(slot_of(h))];
    Home next;
    do {
      next.region = static_cast<int>(script.below(kRegions));
      next.idx = 2 + static_cast<int>(script.below(kPerRegion - 2));
    } while (next.region == down_region && next.idx == down_idx);
    h = next;
    ++apps_on[static_cast<std::size_t>(slot_of(h))];
    sched.post_after(SimTime::from_ms(30), [&, i] {
      const Home& hh = home[static_cast<std::size_t>(i)];
      {
        PB_SPAN("node.register_app", static_cast<std::uint64_t>(i) + 1);
        if (!net.node(home_node(hh)).register_app(svc(i), kDif, accept).ok()) {
          ++churn_failed;
          return;
        }
      }
      const SimTime t_reg = net.now();
      const naming::Address want = addr[home_node(hh)];
      ipcp::Ipcp* root = net.node(anchor(0)).ipcp(kDif);
      ipcp::Ipcp* anc = net.node(anchor(hh.region)).ipcp(kDif);
      sim::Timer* probe = &probes.emplace_back();
      *probe = sched.periodic(kConvergeProbe, [&, i, t_reg, want, root, anc, probe] {
        bool served = root->directory().lookup(svc(i)) == std::optional{want} &&
                      anc->directory().lookup(svc(i)) == std::optional{want};
        bool late = net.now() - t_reg > kConvergeTimeout;
        if (!served && !late) return;
        if (served) {
          converge_sum_ms += (net.now() - t_reg).to_ms();
          ++converged;
        } else {
          ++churn_failed;
        }
        moving[static_cast<std::size_t>(i)] = false;
        probe->cancel();
      });
    });
  };
  auto do_flap = [&] {
    int r = 0, m = 0;
    do {
      r = static_cast<int>(wires.below(kRegions));
      m = 2 + static_cast<int>(wires.below(kPerRegion - 2));
    } while (apps_on[static_cast<std::size_t>(r * kPerRegion + m)] > 0);
    ++flaps;
    down_region = r;
    down_idx = m;
    {
      PB_SPAN("routing.set_link_state", flaps);
      if (!net.set_link_state(anchor(r), spoke(r, m), false).ok()) ++churn_failed;
    }
    sched.post_after(kFlapDownFor, [&, r, m] {
      PB_SPAN("routing.set_link_state", flaps);
      if (!net.set_link_state(anchor(r), spoke(r, m), true).ok()) ++churn_failed;
      down_region = down_idx = -1;
    });
  };
  for (int k = 0; k < kChurnEvents; ++k) {
    sched.post_at(start + SimTime{kChurnEvery.ns * (k + 1)},
                  [&, k] { k % 2 == 0 ? do_move() : do_flap(); });
  }
  for (int j = 0; j < kSlots; ++j) {
    slots[static_cast<std::size_t>(j)].id = j;
    start_resolution(slots[static_cast<std::size_t>(j)]);
  }
  const SimTime script_end = start + SimTime{kChurnEvery.ns * (kChurnEvents + 1)};
  bool finished = false;
  {
    PB_SPAN("sim.run");
    finished = net.run_until(
        [&] {
          return done == kResolutions && net.now() >= script_end &&
                 converged + churn_failed >= moves;
        },
        SimTime::from_sec(120));
  }
  out.measure_s = measure.s();
  measure_span.close();
  out.sim_measure_s = (net.now() - start).to_sec();
  out.window = delta(out.at_setup, read_counters(net, ipcps));
  if (!finished) out.fail_check("measured phase did not finish within 120 s simulated");

  const std::uint64_t churn = moves + flaps;
  out.attempted = started + churn;
  out.failed = res_failed + churn_failed + (started - done);  // still in flight at the end
  out.ops = out.attempted - out.failed;
  out.extra["converge_ms"] = converged > 0 ? converge_sum_ms / static_cast<double>(converged) : 0.0;
  out.extra["ctrl_bytes_per_event"] =
      churn > 0 ? static_cast<double>(out.window["mgmt_bytes_sent"]) / static_cast<double>(churn)
                : 0.0;
  // The hooks capture this frame; detach them before it unwinds, since
  // flows still closing would fire on_closed during the Network's teardown.
  for (Slot& s : slots) spent.push_back(s.f);
  for (flow::Flow& f : spent) {
    f.on_closed(nullptr);
    f.on_writable(nullptr);
  }
  return out;
}

}  // namespace perfbench
