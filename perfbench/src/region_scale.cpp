// region_scale — simulator core and bring-up at ~5,000 nodes.
//
// The C5c shape: 500 regions, each a ten-node link DIF (border b, seven
// spokes, hosts hA on spoke 1 and hB on the border) with keepalives on,
// plus one cross-region express DIF over 5-8 ms wires joining border
// pairs b(p) <-> b(p + R/2). The simulation runs on an 8-shard plan
// (regions block-assigned, so only express wires cross shards) driven by
// two worker threads; results are a function of the plan, never of the
// thread count. Each region carries one unreliable flow hA -> hB at 50
// SDUs/s, and each express pair one flow at the same rate. Every event
// comes from the stack: no bench-owned tick or soft-timer populations.
//
// Operation: one SDU delivered. Latency: one-way delay. Failures:
// refused writes and accepted-but-undelivered SDUs.
#include <memory>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kRegions = 500;
constexpr int kSpokes = 7;
constexpr int kShards = 8;
constexpr int kExpressPairs = kRegions / 2;
constexpr std::size_t kSduBytes = 64;
const SimTime kSendEvery = SimTime::from_ms(20);
const SimTime kLoadFor = SimTime::from_sec(6);
const SimTime kDrainFor = SimTime::from_ms(200);

std::string bdr(int r) { return "b" + std::to_string(r); }
std::string spk(int r, int m) { return "s" + std::to_string(r) + "_" + std::to_string(m); }
std::string host_a(int r) { return "hA" + std::to_string(r); }
std::string host_b(int r) { return "hB" + std::to_string(r); }
naming::DifName reg_dif(int r) { return naming::DifName{"reg" + std::to_string(r)}; }
int shard_of_region(int r) { return r * kShards / kRegions; }

/// One flow's sender and receiver state. The sender side is touched only
/// by the source node's shard, the sink only by the destination's.
struct FlowRec {
  flow::Flow f;
  sim::Scheduler* src_sched = nullptr;
  Bytes payload = Bytes(kSduBytes, 0);
  std::uint64_t writes = 0;
  std::uint64_t refused = 0;
  std::unique_ptr<SeqSink> sink;
  sim::Timer sender;
};

}  // namespace

Round run_region_scale(const Ctx& ctx) {
  Round out;
  Rng topo = stream(ctx.seed, 1);
  Rng traffic = stream(ctx.seed, 2);
  const naming::DifName xdif{"express"};

  Stopwatch setup;
  node::Network net(ctx.seed);
  net.enable_sharding(kShards, ctx.threads, /*ring_capacity=*/512);
  for (int r = 0; r < kRegions; ++r) {
    int sh = shard_of_region(r);
    net.assign_shard(bdr(r), sh);
    for (int m = 1; m <= kSpokes; ++m) net.assign_shard(spk(r, m), sh);
    net.assign_shard(host_a(r), sh);
    net.assign_shard(host_b(r), sh);
  }
  std::vector<std::pair<naming::DifName, std::vector<std::string>>> difs;
  for (int r = 0; r < kRegions; ++r) {
    auto wire = [&](const std::string& a, const std::string& b) {
      node::LinkOpts o;
      o.delay = topo.between(SimTime::from_us(20), SimTime::from_us(200));
      net.add_link(a, b, o);
    };
    std::vector<std::string> members{bdr(r)};
    for (int m = 1; m <= kSpokes; ++m) {
      wire(bdr(r), spk(r, m));
      members.push_back(spk(r, m));
    }
    wire(host_a(r), spk(r, 1));
    wire(host_b(r), bdr(r));
    members.push_back(host_a(r));
    members.push_back(host_b(r));
    node::DifSpec spec;
    spec.cfg.name = reg_dif(r);
    spec.cfg.keepalive_enabled = true;
    spec.members = members;
    difs.emplace_back(reg_dif(r), std::move(members));
    PB_SPAN("node.build_link_dif", static_cast<std::uint64_t>(r) + 1);
    SimTime t0 = net.now();
    auto res = net.build_link_dif(std::move(spec));
    out.extra["node.build_sim_ms"] += (net.now() - t0).to_ms();
    out.extra["node.build_calls"] += 1;
    if (!res.ok()) out.fail_check("build_link_dif: " + res.error().to_string());
  }
  {
    PB_SPAN("sim.run");
    net.run_for(SimTime::from_ms(400));  // every region converges
  }

  // Express layer: always cross-shard under the block plan, so these
  // wires bound the lookahead and every frame on them crosses a ring.
  std::vector<std::string> xmembers;
  for (int p = 0; p < kExpressPairs; ++p) {
    node::LinkOpts o;
    o.delay = topo.between(SimTime::from_ms(5), SimTime::from_ms(8));
    net.add_link(bdr(p), bdr(p + kRegions / 2), o);
    xmembers.push_back(bdr(p));
    xmembers.push_back(bdr(p + kRegions / 2));
  }
  {
    node::DifSpec spec;
    spec.cfg.name = xdif;
    spec.members = xmembers;
    PB_SPAN("node.build_link_dif");
    SimTime t0 = net.now();
    auto res = net.build_link_dif(std::move(spec));
    out.extra["node.build_sim_ms"] += (net.now() - t0).to_ms();
    out.extra["node.build_calls"] += 1;
    if (!res.ok()) out.fail_check("build_link_dif(express): " + res.error().to_string());
  }
  difs.emplace_back(xdif, xmembers);

  // Flows 0..R-1 are regional, R.. are express.
  std::vector<std::unique_ptr<FlowRec>> flows;
  auto add_sink = [&](const std::string& node_name, const naming::DifName& dif,
                      const std::string& app) {
    auto rec = std::make_unique<FlowRec>();
    rec->sink = std::make_unique<SeqSink>(flows.size());
    SeqSink* sink = rec->sink.get();
    sim::Scheduler* dst = &net.node(node_name).sched();
    PB_SPAN("node.register_app");
    auto res = net.node(node_name).register_app(
        naming::AppName{app}, dif, [sink, dst](flow::Flow f) {
          f.on_readable([sink, dst](flow::Flow& fl) {
            for (;;) {
              std::optional<Bytes> sdu;
              {
                PB_SPAN("flow.read");
                sdu = fl.read();
              }
              if (!sdu) break;
              sink->deliver(BytesView{*sdu}, dst->now());
            }
          });
        });
    if (!res.ok()) out.fail_check("register_app: " + res.error().to_string());
    flows.push_back(std::move(rec));
  };
  for (int r = 0; r < kRegions; ++r)
    add_sink(host_b(r), reg_dif(r), "sink" + std::to_string(r));
  for (int p = 0; p < kExpressPairs; ++p)
    add_sink(bdr(p + kRegions / 2), xdif, "xsink" + std::to_string(p));
  {
    PB_SPAN("sim.run");
    net.run_for(SimTime::from_ms(200));
  }
  {
    // Fire every allocation, then wait once: per-flow waits would
    // serialize hundreds of round trips.
    PB_SPAN("flow.allocate");
    for (int i = 0; i < kRegions + kExpressPairs; ++i) {
      bool regional = i < kRegions;
      int p = i - kRegions;
      const std::string src = regional ? host_a(i) : bdr(p);
      FlowRec& rec = *flows[static_cast<std::size_t>(i)];
      rec.src_sched = &net.node(src).sched();
      rec.f = net.node(src).allocate_flow_on(
          regional ? reg_dif(i) : xdif,
          naming::AppName{(regional ? "src" : "xsrc") + std::to_string(regional ? i : p)},
          naming::AppName{(regional ? "sink" : "xsink") + std::to_string(regional ? i : p)},
          flow::QosSpec{});
    }
    net.run_until(
        [&] {
          for (const auto& rec : flows)
            if (rec->f.is_allocating()) return false;
          return true;
        },
        SimTime::from_sec(30));
    for (std::size_t i = 0; i < flows.size(); ++i)
      if (!flows[i]->f.is_open()) out.fail_check("flow " + std::to_string(i) + " did not open");
  }
  out.setup_s = setup.s();
  out.nodes = kRegions * (kSpokes + 3);

  std::vector<ipcp::Ipcp*> ipcps;
  for (const auto& [dif, members] : difs) collect_ipcps(net, dif, members, ipcps);
  out.at_setup = read_counters(net, ipcps);

  Tracer::Scope measure_span("bench.measure");
  Stopwatch measure;
  const SimTime load_start = net.now();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    FlowRec* rec = flows[i].get();
    rec->sender = rec->src_sched->periodic(kSendEvery, [rec, i] {
      stamp_sdu(rec->payload, i, rec->writes, rec->src_sched->now());
      ++rec->writes;
      Result<void> r;
      {
        PB_SPAN("flow.write", i + 1);
        r = rec->f.write(BytesView{rec->payload});
      }
      if (!r.ok()) ++rec->refused;
    });
    (void)rec->sender.rearm_at(
        load_start + SimTime{static_cast<std::int64_t>(
                         traffic.unit() * static_cast<double>(kSendEvery.ns))});
  }
  {
    PB_SPAN("sim.run");
    net.run_for(kLoadFor);
  }
  for (auto& rec : flows) rec->sender.cancel();
  const SimTime load_end = net.now();
  {
    PB_SPAN("sim.run");
    net.run_for(kDrainFor);
  }
  out.measure_s = measure.s();
  measure_span.close();
  out.sim_measure_s = (net.now() - load_start).to_sec();
  out.window = delta(out.at_setup, read_counters(net, ipcps));

  std::uint64_t writes = 0, refused = 0, delivered = 0;
  for (const auto& rec : flows) {
    writes += rec->writes;
    refused += rec->refused;
    delivered += rec->sink->unique_between(load_start, load_end);
    for (const auto& [sent, ms] : rec->sink->samples())
      if (sent >= load_start && sent < load_end) out.lat_ms.add(ms);
    if (rec->sink->dups() != 0) out.fail_check("duplicate SDUs delivered");
    if (rec->sink->corrupt() != 0) out.fail_check("corrupt SDUs delivered");
  }
  const std::uint64_t accepted = writes - refused;
  out.attempted = writes;
  out.ops = delivered;
  out.failed = refused + (accepted > delivered ? accepted - delivered : 0);
  out.extra["flow.write_refused_ratio"] =
      writes > 0 ? static_cast<double>(refused) / static_cast<double>(writes) : 0.0;
  return out;
}

}  // namespace perfbench
