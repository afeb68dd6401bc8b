// main.cpp — the perfbench program: runs one workload for a host-time
// budget as repeated rounds (build from an empty Network, measure a fixed
// amount of simulated work, tear down), checks the outputs, and prints
// one JSON result line last.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <t>] [--trace-dir <dir>]
//
// Every round of a run uses the same seed, so every round must produce
// the same digest of simulated metrics and counters; a mismatch marks
// the run incorrect. Host-time metrics are medians over rounds.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates
// untraced and traced rounds and prints the per-layer metrics: counter
// deltas over the measured phase, bring-up totals, span timings from the
// traced rounds, and the tracing overhead (ops/s of traced vs untraced
// rounds). Spans of the first traced round, with self times, and a
// per-name summary over all traced rounds go to <trace-dir>.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 0;
  std::string trace_dir = ".bench_build/traces";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<stack_bulk|region_scale|churn_ctl|cdn_zipf> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <t>] [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds >= 0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--threads") {
      a.threads = std::atoi(v.c_str());
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds)
    usage("--workload, --seed and --seconds are required");
  return a;
}

using WorkloadFn = Round (*)(const Ctx&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "stack_bulk") return run_stack_bulk;
  if (name == "region_scale") return run_region_scale;
  if (name == "churn_ctl") return run_churn_ctl;
  if (name == "cdn_zipf") return run_cdn_zipf;
  return nullptr;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ digest

/// FNV-1a over every simulated quantity of a round: operation counts,
/// latency percentiles, workload sim metrics and all counters except the
/// packet arena's (its hit pattern depends on what earlier rounds and
/// other threads left in the free lists, so it is host state).
std::uint64_t digest(const Round& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  auto num = [&mix](const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    mix(k);
    mix(buf);
  };
  num("ops", static_cast<double>(r.ops));
  num("attempted", static_cast<double>(r.attempted));
  num("failed", static_cast<double>(r.failed));
  num("samples", static_cast<double>(r.lat_ms.count()));
  num("p50", r.lat_ms.p50());
  num("p99", r.lat_ms.p99());
  num("p999", r.lat_ms.percentile(99.9));
  num("sim_s", r.sim_measure_s);
  for (const auto& [k, v] : r.extra) num(k, v);
  for (const Counters* c : {&r.at_setup, &r.window})
    for (const auto& [k, v] : *c)
      if (k.rfind("pkt.", 0) != 0) num(k, static_cast<double>(v));
  return h;
}

// ------------------------------------------------------------ spans

struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Self time per span: its duration minus the part its direct children
/// cover (children on worker threads may overlap each other, so the
/// covered part is the union of their intervals).
std::vector<double> self_times(const std::vector<Tracer::Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Tracer::Span& s : spans) {
    auto it = by_id.find(s.parent);
    if (s.parent != 0 && it != by_id.end())
      kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

/// Span timings summed over traced rounds, split at the measured phase.
struct RoundSpans {
  std::map<std::string, SpanStats> all;      // whole round, by name
  std::map<std::string, SpanStats> measure;  // spans inside bench.measure
  std::size_t count = 0;
};

void summarize(const std::vector<Tracer::Span>& spans, const std::vector<double>& self,
               RoundSpans& out) {
  out.count += spans.size();
  std::int64_t m_lo = 0, m_hi = -1;
  for (const Tracer::Span& s : spans)
    if (std::strcmp(s.name, "bench.measure") == 0) {
      m_lo = s.start_ns;
      m_hi = s.end_ns;
    }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    double dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanStats& a = out.all[s.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += self[i];
    if (s.start_ns >= m_lo && s.end_ns <= m_hi) {
      SpanStats& m = out.measure[s.name];
      ++m.count;
      m.total_ns += dur;
      m.self_ns += self[i];
    }
  }
}

/// One JSON object per line: every span of the first traced round with
/// its self time, then a per-name summary over all traced rounds.
void write_trace(const std::string& dir, const std::string& workload,
                 std::uint64_t seed, const std::vector<Tracer::Span>& spans,
                 const std::vector<double>& self,
                 const std::map<std::string, SpanStats>& summary,
                 std::size_t traced_rounds) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/" + workload + "-seed" + std::to_string(seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"op\": %" PRIu64 ", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"self_ns\": %.0f}\n",
                 s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, self[i]);
  }
  for (const auto& [name, st] : summary)
    std::fprintf(f,
                 "{\"summary\": \"%s\", \"rounds\": %zu, \"count\": %" PRIu64
                 ", \"total_ns\": %.0f, \"self_ns\": %.0f}\n",
                 name.c_str(), traced_rounds, st.count, st.total_ns, st.self_ns);
  std::fclose(f);
  std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// The per-layer metrics, in BENCHMARK.json order. Counters come from
/// `r` (identical in every round: the digest checks it); span timings
/// are `sp`'s totals per traced round.
std::vector<Metric> layer_metrics(const Round& r, const RoundSpans& sp,
                                  double traced_rounds, double untraced_measure_s,
                                  double overhead) {
  const Counters& W = r.window;
  const Counters& S = r.at_setup;
  auto w = [&W](const char* k) {
    auto it = W.find(k);
    return it == W.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto s = [&S](const char* k) {
    auto it = S.find(k);
    return it == S.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto x = [&r](const char* k) {
    auto it = r.extra.find(k);
    return it == r.extra.end() ? 0.0 : it->second;
  };
  auto span_total_s = [&](const std::map<std::string, SpanStats>& m,
                          std::initializer_list<const char*> names) {
    double ns = 0;
    for (const char* n : names) {
      auto it = m.find(n);
      if (it != m.end()) ns += it->second.total_ns;
    }
    return ns / 1e9 / traced_rounds;
  };
  auto span_mean_ns = [&](const char* n) {
    auto it = sp.measure.find(n);
    return it == sp.measure.end() ? 0.0
                                  : ratio(it->second.total_ns,
                                          static_cast<double>(it->second.count));
  };
  const double ops = static_cast<double>(r.ops);
  const double sdus = w("sdus_delivered");
  return {
      {"sim.events_per_s", "1/s", ratio(w("sim.events"), untraced_measure_s)},
      {"sim.run_s", "s", span_total_s(sp.measure, {"sim.run"})},
      {"sim.events_per_op", "count", ratio(w("sim.events"), ops)},
      {"sim.timers_pending", "count", s("sim.timers_pending")},
      {"sim.link_queue_drops", "count", w("link.queue_drops")},
      {"sim.link_bytes_per_op", "B", ratio(w("link.tx_bytes"), ops)},
      {"sim.windows", "count", w("sim.windows")},
      {"sim.events_per_window", "count", ratio(w("sim.events"), w("sim.windows"))},
      {"sim.xshard_frames", "count", w("link.xshard_frames")},
      {"sim.xshard_drops", "count", w("link.xshard_drops")},
      {"sim.xshard_copies", "count", w("link.xshard_copies")},
      {"packet.allocs_per_sdu", "count", ratio(w("pkt.allocs"), sdus)},
      {"packet.arena_hit_ratio", "ratio", ratio(w("pkt.arena_hits"), w("pkt.allocs"))},
      {"packet.copies_per_sdu", "count", ratio(w("pkt.payload_copies"), sdus)},
      {"packet.cow_per_sdu", "count", ratio(w("pkt.cow_copies"), sdus)},
      {"packet.headroom_reallocs", "count", w("pkt.headroom_reallocs")},
      {"flow.write_ns", "ns", span_mean_ns("flow.write")},
      {"flow.read_ns", "ns", span_mean_ns("flow.read")},
      {"flow.write_refused_ratio", "ratio", x("flow.write_refused_ratio")},
      {"flow.app_rx_dropped", "count", w("app_rx_dropped")},
      {"flow.alloc_s", "s", span_total_s(sp.all, {"flow.allocate"}) -
                                span_total_s(sp.measure, {"flow.allocate"})},
      {"efcp.retx_ratio", "ratio", ratio(w("pdus_retx"), w("pdus_tx"))},
      {"efcp.acks_per_pdu", "ratio", ratio(w("acks_tx"), w("pdus_tx"))},
      {"efcp.rto_fired", "count", w("rto_fired")},
      {"efcp.cwnd_backoffs", "count", w("cwnd_backoffs")},
      {"efcp.srtt_us", "us", x("efcp.srtt_us")},
      {"relay.relayed_per_op", "count", ratio(w("relayed"), ops)},
      {"relay.rmt_queue_peak", "count", w("rmt_queue_peak")},
      {"relay.rmt_drops", "count", w("rmt_drops")},
      {"relay.ecn_marked", "count", w("ecn_marked")},
      {"relay.drop_no_route", "count", w("drop_no_route")},
      {"node.build_s", "s", span_total_s(sp.all, {"node.build_link_dif",
                                                   "node.build_overlay_dif"})},
      {"node.build_calls", "count", x("node.build_calls")},
      {"node.build_sim_ms", "ms", x("node.build_sim_ms")},
      {"ipcp.bringup_mgmt_kb", "KiB", s("mgmt_bytes_sent") / 1024.0},
      {"ipcp.keepalives_per_node_s", "1/s",
       ratio(w("keepalives_sent"), static_cast<double>(r.nodes) * r.sim_measure_s)},
      {"ipcp.riep_sent", "count", w("riep_sent")},
      {"routing.spf_runs", "count", w("spf_runs")},
      {"routing.spf_vertices", "count", w("spf_vertices_recomputed")},
      {"routing.spf_skipped", "count", w("spf_skipped")},
      {"routing.lsus_flooded", "count", w("lsus_flooded")},
      {"routing.lsus_dup_suppressed", "count", w("lsus_dup_suppressed")},
      {"routing.flap_s", "s", span_total_s(sp.measure, {"routing.set_link_state"})},
      {"rib.deltas_originated", "count", w("deltas_originated")},
      {"rib.gap_pulls", "count", w("delta_gap_pulls")},
      {"rib.snapshot_fallbacks", "count", w("snapshot_fallbacks")},
      {"rib.digest_rounds", "count", w("digest_rounds")},
      {"rib.finger_hit_ratio", "ratio",
       ratio(w("digest_finger_hits"), w("digest_finger_hits") + w("digest_finger_misses"))},
      {"naming.dir_cache_hit_ratio", "ratio",
       ratio(w("dir_cache_hits"), w("dir_cache_hits") + w("dir_cache_misses"))},
      {"naming.dir_queries_sent", "count", w("dir_queries_sent")},
      {"naming.dir_invalidations", "count", w("dir_cache_invalidations")},
      {"naming.dir_targeted_updates", "count", w("dir_targeted_updates")},
      {"content.cs_hit_ratio", "ratio", ratio(w("cs_hits"), w("cs_hits") + w("cs_misses"))},
      {"content.cs_evictions", "count", w("cs_evictions")},
      {"content.cs_ghost_hits", "count", w("cs_ghost_hits")},
      {"content.origin_reqs_per_fetch", "ratio", x("content.origin_reqs_per_fetch")},
      {"content.interest_retries", "count", x("content.interest_retries")},
      {"content.fetch_ns", "ns", span_mean_ns("content.fetch")},
      {"fail_ratio", "ratio",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted))},
      {"hit_ratio", "ratio", x("hit_ratio")},
      {"ctrl_bytes_per_event", "B", x("ctrl_bytes_per_event")},
      {"converge_ms", "ms", x("converge_ms")},
      {"lat_samples", "count", static_cast<double>(r.lat_ms.count())},
      {"trace.overhead_ratio", "ratio", overhead},
      {"trace.spans_per_round", "count", static_cast<double>(sp.count) / traced_rounds},
  };
}

void print_result(bool correct, const Round& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& a) {
  WorkloadFn fn = find_workload(a.workload);
  if (fn == nullptr) usage(("unknown workload " + a.workload).c_str());
  Ctx ctx;
  ctx.seed = a.seed;
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ctx.threads = a.threads > 0 ? std::min(a.threads, hw) : std::min(2, hw);

  const std::size_t min_rounds = a.trace ? 2 : 3;
  std::vector<Round> rounds;
  std::vector<bool> traced;
  RoundSpans spans_total;
  std::size_t traced_rounds = 0;
  std::vector<Tracer::Span> first_spans;  // of the first traced round
  std::vector<double> first_self;
  double rss_mb = 0;
  Stopwatch budget;
  for (std::size_t i = 0; i < min_rounds || budget.s() < a.seconds; ++i) {
    bool tr = a.trace && i % 2 == 1;
    Tracer::enable(tr);
    Round r;
    {
      Tracer::Scope whole("bench.round", i + 1);
      r = fn(ctx);
    }
    Tracer::enable(false);
    std::vector<Tracer::Span> spans = Tracer::collect();
    if (tr) {
      std::vector<double> self = self_times(spans);
      summarize(spans, self, spans_total);
      if (traced_rounds++ == 0) {
        first_spans = std::move(spans);
        first_self = std::move(self);
      }
    }
    std::fprintf(stderr,
                 "perfbench: %s round %zu%s: setup %.3f s, measure %.3f s, "
                 "%" PRIu64 " ops\n",
                 a.workload.c_str(), i + 1, tr ? " (traced)" : "", r.setup_s,
                 r.measure_s, r.ops);
    rounds.push_back(std::move(r));
    traced.push_back(tr);
    // Peak memory of one round from a fresh process: later rounds reuse
    // (and fragment) the heap, so their maxima would track round count.
    if (i == 0) rss_mb = peak_rss_mb();
  }

  // Correctness: every round's own checks, and one digest for all rounds.
  const Round& first = rounds.front();
  const std::uint64_t dig = digest(first);
  bool correct = true;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (!rounds[i].correct) {
      std::printf("check failed (round %zu): %s\n", i + 1, rounds[i].why.c_str());
      correct = false;
    }
    if (digest(rounds[i]) != dig) {
      std::printf("check failed: round %zu digest differs from round 1\n", i + 1);
      correct = false;
    }
  }
  if (first.attempted == 0) correct = false;

  std::vector<double> setup, ops_s, ops_traced, measure_untraced;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    double rate = ratio(static_cast<double>(rounds[i].ops), rounds[i].measure_s);
    if (traced[i]) {
      ops_traced.push_back(rate);
    } else {
      setup.push_back(rounds[i].setup_s);
      ops_s.push_back(rate);
      measure_untraced.push_back(rounds[i].measure_s);
    }
  }

  std::printf("digest %016" PRIx64 "\n", dig);
  std::printf("workload %s seed %" PRIu64 " rounds %zu ops %" PRIu64
              " attempted %" PRIu64 " failed %" PRIu64 " lat_samples %zu"
              " sim_measure_s %.6f\n",
              a.workload.c_str(), a.seed, rounds.size(), first.ops,
              first.attempted, first.failed, first.lat_ms.count(),
              first.sim_measure_s);
  for (const char* k : {"hit_ratio", "ctrl_bytes_per_event", "converge_ms"}) {
    auto it = first.extra.find(k);
    if (it != first.extra.end()) std::printf("sim %s %.17g\n", k, it->second);
  }

  if (!a.trace) {
    if (first.lat_ms.count() < 10000)
      std::printf("note: lat_p999_ms rests on %zu samples (< 10000)\n",
                  first.lat_ms.count());
    print_result(correct, first,
                 {{"setup_s", "s", median(setup)},
                  {"ops_per_s", "1/s", median(ops_s)},
                  {"peak_rss_mb", "MB", rss_mb},
                  {"lat_p50_ms", "ms", first.lat_ms.p50()},
                  {"lat_p99_ms", "ms", first.lat_ms.p99()},
                  {"lat_p999_ms", "ms", first.lat_ms.percentile(99.9)}});
    return 0;
  }

  const double n_traced = static_cast<double>(std::max<std::size_t>(1, traced_rounds));
  const double overhead = 1.0 - ratio(median(ops_traced), median(ops_s));
  write_trace(a.trace_dir, a.workload, a.seed, first_spans, first_self, spans_total.all,
              traced_rounds);
  for (const auto& [name, st] : spans_total.all)
    std::fprintf(stderr, "span %-26s count %10" PRIu64 "  total %10.3f ms  self %10.3f ms\n",
                 name.c_str(), st.count, st.total_ns / 1e6, st.self_ns / 1e6);
  std::printf("trace overhead: ops/s untraced %.1f, traced %.1f (%.2f%%)\n",
              median(ops_s), median(ops_traced), 100.0 * overhead);
  print_result(correct, first,
               layer_metrics(first, spans_total, n_traced, median(measure_untraced), overhead));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
