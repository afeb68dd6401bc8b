// stack_bulk — the per-packet path at recursion depth 3.
//
//   h0..h15 --left-- r1 ==seg (bottleneck)== r2 --right-- s0..s15
//                  \______________ e2e overlay ______________/
//
// A c2-style scoped dumbbell: access link DIFs on each side, an aimd_ecn
// segment DIF on the bottleneck, and an end-to-end overlay DIF riding
// all three. Sixteen reliable open-loop CBR flows (h_i -> s_i) together
// offer 80% of the bottleneck's wire capacity; even flows send 64 B
// SDUs, odd flows 1400 B. (At 85-90% this arrangement collapses: the e2e
// RMT at r1 overflows, e2e retransmission timers back off and some flows
// starve, so half the SDUs fail and the outcome swings with the seed;
// README.md records the numbers.) Keepalives, churn and the content store are
// off, so the measured phase is flow -> efcp -> relay -> packet -> link
// and back, with an idle control plane.
//
// Operation: one SDU delivered (sent in the load window, delivered by
// the end of the drain). Latency: one-way delay from the SDU's due time.
// Failures: refused writes and accepted-but-undelivered SDUs.
#include <memory>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kPairs = 16;
constexpr double kBottleneckBps = 100e6;
constexpr double kOfferedShare = 0.8;
constexpr std::size_t kSmallSdu = 64;
constexpr std::size_t kLargeSdu = 1400;
/// Bottleneck wire bytes per SDU beyond its payload: the e2e and seg
/// headers plus the NIC's dif-id tag (checked: offered at 30%, the
/// bottleneck carried 29.7% of its capacity, acks included).
constexpr std::size_t kWireOverhead = 60;
const SimTime kLoadFor = SimTime::from_sec(10);
const SimTime kDrainFor = SimTime::from_ms(500);

std::string host(int i) { return "h" + std::to_string(i); }
std::string server(int i) { return "s" + std::to_string(i); }
std::size_t sdu_bytes(int i) { return i % 2 == 0 ? kSmallSdu : kLargeSdu; }

node::DifSpec dif_spec(const std::string& name, std::vector<std::string> members) {
  node::DifSpec s;
  s.cfg.name = naming::DifName{name};
  s.members = std::move(members);
  return s;
}

}  // namespace

Round run_stack_bulk(const Ctx& ctx) {
  Round out;
  Rng topo = stream(ctx.seed, 1);
  Rng traffic = stream(ctx.seed, 2);

  Stopwatch setup;
  node::Network net(ctx.seed);
  node::LinkOpts bottleneck;
  bottleneck.rate_bps = kBottleneckBps;
  bottleneck.delay = SimTime::from_ms(2);
  std::vector<std::string> left{"r1"}, right{"r2"}, all{"r1", "r2"};
  for (int i = 0; i < kPairs; ++i) {
    // Access wires: 1 Gb/s with seeded propagation delays, so one-way
    // delays (and the flows' collisions at r1) differ per seed.
    node::LinkOpts access;
    access.delay = topo.between(SimTime::from_us(20), SimTime::from_us(200));
    net.add_link(host(i), "r1", access);
    access.delay = topo.between(SimTime::from_us(20), SimTime::from_us(200));
    net.add_link("r2", server(i), access);
    left.push_back(host(i));
    right.push_back(server(i));
    all.push_back(host(i));
    all.push_back(server(i));
  }
  net.add_link("r1", "r2", bottleneck);

  auto build = [&](node::DifSpec spec) {
    PB_SPAN("node.build_link_dif");
    SimTime t0 = net.now();
    auto r = net.build_link_dif(std::move(spec));
    out.extra["node.build_sim_ms"] += (net.now() - t0).to_ms();
    out.extra["node.build_calls"] += 1;
    if (!r.ok()) out.fail_check("build_link_dif: " + r.error().to_string());
  };
  build(dif_spec("left", left));
  build(dif_spec("right", right));
  node::DifSpec seg = dif_spec("seg", {"r1", "r2"});
  flow::QosCube aimd;
  aimd.id = 0;
  aimd.name = "aimd";
  aimd.efcp_policy = "reliable";
  aimd.dtcp_policy = "aimd_ecn";
  aimd.reliable = true;
  aimd.in_order = true;
  seg.cfg.cubes = {aimd};
  seg.cfg.rmt_ecn_threshold = 48;
  build(std::move(seg));

  std::vector<node::Network::OverlayAdj> adjs;
  adjs.push_back({"r1", "r2", naming::DifName{"seg"}, flow::QosSpec::reliable_default()});
  for (int i = 0; i < kPairs; ++i) {
    adjs.push_back({host(i), "r1", naming::DifName{"left"}, {}});
    adjs.push_back({"r2", server(i), naming::DifName{"right"}, {}});
  }
  {
    PB_SPAN("node.build_overlay_dif");
    SimTime t0 = net.now();
    auto r = net.build_overlay_dif(dif_spec("e2e", all), std::move(adjs));
    out.extra["node.build_sim_ms"] += (net.now() - t0).to_ms();
    out.extra["node.build_calls"] += 1;
    if (!r.ok()) out.fail_check("build_overlay_dif: " + r.error().to_string());
  }
  const naming::DifName e2e{"e2e"};

  std::vector<std::unique_ptr<SeqSink>> sinks;
  for (int i = 0; i < kPairs; ++i) {
    sinks.push_back(std::make_unique<SeqSink>(static_cast<std::uint64_t>(i)));
    SeqSink* sink = sinks.back().get();
    PB_SPAN("node.register_app");
    auto r = net.node(server(i)).register_app(
        naming::AppName{"sink" + std::to_string(i)}, e2e,
        [sink, &net](flow::Flow f) {
          f.on_readable([sink, &net](flow::Flow& fl) {
            for (;;) {
              std::optional<Bytes> sdu;
              {
                PB_SPAN("flow.read");
                sdu = fl.read();
              }
              if (!sdu) break;
              sink->deliver(BytesView{*sdu}, net.now());
            }
          });
        });
    if (!r.ok()) out.fail_check("register_app: " + r.error().to_string());
  }
  {
    PB_SPAN("sim.run");
    net.run_for(SimTime::from_ms(100));  // directory entries reach the hosts
  }
  std::vector<flow::Flow> flows;
  {
    PB_SPAN("flow.allocate");
    for (int i = 0; i < kPairs; ++i) {
      flows.push_back(net.node(host(i)).allocate_flow(
          naming::AppName{"src" + std::to_string(i)},
          naming::AppName{"sink" + std::to_string(i)},
          flow::QosSpec::reliable_default()));
      if (!wait_open(net, flows.back(), SimTime::from_sec(10)))
        out.fail_check("flow " + std::to_string(i) + " did not open");
    }
  }
  out.setup_s = setup.s();
  out.nodes = 2 + 2 * kPairs;

  std::vector<ipcp::Ipcp*> ipcps;
  for (const char* d : {"left", "right", "seg", "e2e"})
    collect_ipcps(net, naming::DifName{d}, all, ipcps);
  out.at_setup = read_counters(net, ipcps);

  // Open loop: flow i fires every `gap` from a seeded phase, regardless
  // of how earlier writes fared. Equal SDU rates per flow; the rate is
  // chosen so the bottleneck's wire bytes come to kOfferedShare of its
  // capacity.
  const double wire_bytes_per_sdu =
      0.5 * static_cast<double>(kSmallSdu + kLargeSdu) + kWireOverhead;
  const double total_pps = kOfferedShare * kBottleneckBps / 8.0 / wire_bytes_per_sdu;
  const SimTime gap = SimTime::from_sec(kPairs / total_pps);
  std::vector<Bytes> payloads;
  std::vector<std::uint64_t> next_seq(kPairs, 0);
  std::uint64_t writes = 0, refused = 0;
  for (int i = 0; i < kPairs; ++i) payloads.emplace_back(sdu_bytes(i), 0);

  Tracer::Scope measure_span("bench.measure");
  Stopwatch measure;
  const SimTime load_start = net.now();
  std::vector<sim::Timer> senders;
  for (int i = 0; i < kPairs; ++i) {
    auto fi = static_cast<std::size_t>(i);
    sim::Timer t = net.sched().periodic(gap, [&, fi] {
      stamp_sdu(payloads[fi], fi, next_seq[fi]++, net.now());
      ++writes;
      Result<void> r;
      {
        PB_SPAN("flow.write", writes);
        r = flows[fi].write(BytesView{payloads[fi]});
      }
      if (!r.ok()) ++refused;
    });
    (void)t.rearm_at(load_start + SimTime{static_cast<std::int64_t>(
                                      traffic.unit() * static_cast<double>(gap.ns))});
    senders.push_back(std::move(t));
  }
  {
    PB_SPAN("sim.run");
    net.run_for(kLoadFor);
  }
  senders.clear();  // cancel-on-destroy ends the load
  const SimTime load_end = net.now();
  {
    PB_SPAN("sim.run");
    net.run_for(kDrainFor);
  }
  out.measure_s = measure.s();
  measure_span.close();
  out.sim_measure_s = (net.now() - load_start).to_sec();
  out.window = delta(out.at_setup, read_counters(net, ipcps));

  std::uint64_t delivered = 0, dups = 0, corrupt = 0;
  for (const auto& s : sinks) {
    for (const auto& [sent, ms] : s->samples())
      if (sent >= load_start && sent < load_end) out.lat_ms.add(ms);
    delivered += s->unique_between(load_start, load_end);
    dups += s->dups();
    corrupt += s->corrupt();
  }
  const std::uint64_t accepted = writes - refused;
  out.attempted = writes;
  out.ops = delivered;
  out.failed = refused + (accepted > delivered ? accepted - delivered : 0);
  if (dups != 0) out.fail_check("duplicate SDUs delivered on reliable flows");
  if (corrupt != 0) out.fail_check("corrupt SDUs delivered");
  if (delivered > accepted) out.fail_check("more SDUs delivered than accepted");

  out.extra["flow.write_refused_ratio"] =
      writes > 0 ? static_cast<double>(refused) / static_cast<double>(writes) : 0.0;
  out.extra["efcp.srtt_us"] =
      static_cast<double>(net.max_dif_counter(naming::DifName{"seg"}, "srtt_us"));
  return out;
}

}  // namespace perfbench
