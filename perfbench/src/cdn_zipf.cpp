// cdn_zipf — the content layer: request up, 1200 B data down.
//
//   c0..c15  -- e0 --+
//   c16..c31 -- e1 --+
//                    +-- core -- origin
//   c32..c47 -- e2 --+
//   c48..c63 -- e3 --+
//
// A scaled c8: one DIF over 70 nodes whose RMT content-store policy is
// on, so every relay (the four edges and the core) keeps an ARC store
// and answers interests it holds. 64 client nodes, each a ContentClient
// on one unreliable flow to the origin, keep four fetches outstanding
// (closed loop) over a seeded Zipf(0.9) stream of 20,000 objects. A
// warm-up of 20,000 fetches fills the stores before the measured phase
// of 100,000 fetches; warm stores are part of "ready".
//
// Operation: one completed fetch. Latency: fetch completion time (request
// to callback). Failures: nacked or timed-out fetches. Every payload is
// compared with the origin provider's bytes for that object.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "content/protocol.hpp"

namespace perfbench {

namespace {

constexpr int kEdges = 4;
constexpr int kClientsPerEdge = 16;
constexpr int kClients = kEdges * kClientsPerEdge;
constexpr int kOutstanding = 4;
constexpr std::size_t kObjects = 20000;
constexpr std::size_t kObjBytes = 1200;
constexpr std::size_t kStoreObjects = 1024;
constexpr double kZipfAlpha = 0.9;
constexpr std::uint64_t kWarmFetches = 20000;
constexpr std::uint64_t kMeasureFetches = 100000;
const std::string kOrigin = "origin";

std::string client(int i) { return "c" + std::to_string(i); }
std::string edge(int e) { return "e" + std::to_string(e); }

/// The origin's catalog: deterministic bytes per object id.
Bytes object_bytes(std::uint64_t id) {
  Bytes b(kObjBytes);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>((id * 31 + i * 7 + (id >> 8)) & 0xFF);
  return b;
}

std::optional<Bytes> provide(const std::string& name, std::uint64_t id) {
  if (name != kOrigin || id >= kObjects) return std::nullopt;
  return object_bytes(id);
}

/// Zipf(alpha) ranks over [0, n) by inverse CDF on one shared table.
class Zipf {
 public:
  Zipf(std::size_t n, double alpha) {
    cdf_.reserve(n);
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      cdf_.push_back(sum);
    }
    for (double& v : cdf_) v /= sum;
  }
  std::uint64_t draw(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit());
    if (it == cdf_.end()) --it;
    return static_cast<std::uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct ClientRec {
  std::unique_ptr<content::ContentClient> cc;
  Rng rng{0};
};

}  // namespace

Round run_cdn_zipf(const Ctx& ctx) {
  Round out;
  Rng topo = stream(ctx.seed, 1);
  const Zipf zipf(kObjects, kZipfAlpha);

  Stopwatch setup;
  node::Network net(ctx.seed);
  node::LinkOpts backbone;
  backbone.rate_bps = 1e9;
  backbone.delay = SimTime::from_ms(10);
  node::LinkOpts origin_link;
  origin_link.rate_bps = 1e9;
  origin_link.delay = SimTime::from_ms(5);
  std::vector<std::string> members{"core", kOrigin};
  for (int e = 0; e < kEdges; ++e) {
    net.add_link(edge(e), "core", backbone);
    members.push_back(edge(e));
  }
  for (int i = 0; i < kClients; ++i) {
    node::LinkOpts access;
    access.rate_bps = 100e6;
    access.delay = topo.between(SimTime::from_us(500), SimTime::from_us(1500));
    net.add_link(client(i), edge(i / kClientsPerEdge), access);
    members.push_back(client(i));
  }
  net.add_link("core", kOrigin, origin_link);

  node::DifSpec spec;
  spec.cfg.name = naming::DifName{"cdn"};
  spec.cfg.rmt_content_store_enabled = true;
  spec.cfg.rmt_content_store_objects = kStoreObjects;
  spec.members = members;
  const naming::DifName dif = spec.cfg.name;
  {
    PB_SPAN("node.build_link_dif");
    SimTime t0 = net.now();
    auto r = net.build_link_dif(std::move(spec));
    out.extra["node.build_sim_ms"] += (net.now() - t0).to_ms();
    out.extra["node.build_calls"] += 1;
    if (!r.ok()) out.fail_check("build_link_dif: " + r.error().to_string());
  }
  {
    PB_SPAN("sim.run");
    net.run_for(SimTime::from_ms(300));
  }
  content::ContentServer server(provide);
  {
    PB_SPAN("node.register_app");
    auto r = net.node(kOrigin).register_app(naming::AppName{kOrigin}, dif, server.accept_fn());
    if (!r.ok()) out.fail_check("register_app: " + r.error().to_string());
  }
  {
    PB_SPAN("sim.run");
    net.run_for(SimTime::from_ms(100));
  }

  // Content flows ride the unreliable class: a relay's cached reply wears
  // the origin's endpoint identity, which only an unreliable receiver
  // accepts as is (see content/protocol.hpp).
  std::vector<ClientRec> clients(kClients);
  {
    PB_SPAN("flow.allocate");
    for (int i = 0; i < kClients; ++i) {
      flow::Flow f = net.node(client(i)).allocate_flow(
          naming::AppName{client(i)}, naming::AppName{kOrigin}, flow::QosSpec::unreliable());
      if (!wait_open(net, f, SimTime::from_sec(10)))
        out.fail_check("client flow " + std::to_string(i) + " did not open");
      clients[static_cast<std::size_t>(i)].cc =
          std::make_unique<content::ContentClient>(net.sched(), std::move(f), kOrigin);
      clients[static_cast<std::size_t>(i)].rng = stream(ctx.seed, 100 + static_cast<std::uint64_t>(i));
    }
  }

  // Closed loop: each completion starts the client's next fetch, from a
  // fresh event rather than inside the client's receive path.
  bool fetching = true;
  std::uint64_t completed = 0, ok = 0, failed = 0, mismatched = 0, fetch_ops = 0;
  bool measuring = false;
  std::function<void(int)> start_fetch = [&](int i) {
    if (!fetching) return;
    ClientRec& c = clients[static_cast<std::size_t>(i)];
    const std::uint64_t id = zipf.draw(c.rng);
    const SimTime t0 = net.now();
    PB_SPAN("content.fetch", ++fetch_ops);
    c.cc->fetch(id, [&, i, id, t0](Result<Bytes> r) {
      ++completed;
      if (measuring) {
        if (r.ok()) {
          ++ok;
          out.lat_ms.add((net.now() - t0).to_ms());
          if (r.value() != object_bytes(id)) ++mismatched;
        } else {
          ++failed;
        }
      } else if (r.ok() && r.value() != object_bytes(id)) {
        ++mismatched;
      }
      net.sched().post_at(net.now(), [&start_fetch, i] { start_fetch(i); });
    });
  };
  for (int i = 0; i < kClients; ++i)
    for (int k = 0; k < kOutstanding; ++k) start_fetch(i);
  {
    PB_SPAN("sim.run");
    net.run_until([&] { return completed >= kWarmFetches; }, SimTime::from_sec(60));
  }
  out.setup_s = setup.s();
  out.nodes = members.size();

  std::vector<ipcp::Ipcp*> ipcps;
  collect_ipcps(net, dif, members, ipcps);
  out.at_setup = read_counters(net, ipcps);
  const std::uint64_t served0 = server.stats().get("requests_served");
  std::uint64_t retries0 = 0;
  for (const ClientRec& c : clients) retries0 += c.cc->stats().get("interest_retries");

  Tracer::Scope measure_span("bench.measure");
  Stopwatch measure;
  const SimTime start = net.now();
  measuring = true;
  bool finished = false;
  {
    PB_SPAN("sim.run");
    finished = net.run_until([&] { return ok + failed >= kMeasureFetches; },
                             SimTime::from_sec(120));
  }
  fetching = false;
  measuring = false;
  out.measure_s = measure.s();
  measure_span.close();
  out.sim_measure_s = (net.now() - start).to_sec();
  out.window = delta(out.at_setup, read_counters(net, ipcps));
  if (!finished) out.fail_check("measured phase did not finish within 120 s simulated");
  if (mismatched != 0)
    out.fail_check(std::to_string(mismatched) + " fetched payloads differ from the origin's bytes");

  out.attempted = ok + failed;
  out.failed = failed;
  out.ops = ok;
  const double served = static_cast<double>(server.stats().get("requests_served") - served0);
  const double replies = static_cast<double>(out.window["cs_replies"]);
  std::uint64_t retries = 0;
  for (const ClientRec& c : clients) retries += c.cc->stats().get("interest_retries");
  out.extra["hit_ratio"] = replies + served > 0 ? replies / (replies + served) : 0.0;
  out.extra["content.origin_reqs_per_fetch"] =
      out.attempted > 0 ? served / static_cast<double>(out.attempted) : 0.0;
  out.extra["content.interest_retries"] = static_cast<double>(retries - retries0);
  // The clients die before the Network; detach their hooks so a flow
  // closed during its teardown cannot call into a destroyed client.
  for (ClientRec& c : clients) {
    c.cc->flow().on_closed(nullptr);
    c.cc->flow().on_readable(nullptr);
  }
  return out;
}

}  // namespace perfbench
