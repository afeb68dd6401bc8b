// common.hpp — shared machinery for the scenario benches.
//
// Every bench binary regenerates one figure/claim of the paper (see
// EXPERIMENTS.md): it builds a topology, drives stamped traffic, and
// prints a table whose rows are the series the paper's argument predicts.
// SDUs carry [seq u64][send_time_ns i64] so sinks measure loss, duplication
// and one-way delay without any side channel.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/splitmix.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "node/network.hpp"

namespace rina::benchx {

using node::Network;

/// Scale factor for driven-load durations, from RINA_BENCH_DURATION_SCALE.
/// CI smoke runs set e.g. 0.1 to finish fast; absolute rate columns are
/// then distorted (the benches divide by their nominal duration), so
/// scaled runs are pass/fail smoke only.
inline double duration_scale() {
  static const double s = [] {
    const char* v = std::getenv("RINA_BENCH_DURATION_SCALE");
    if (v == nullptr) return 1.0;
    double d = std::atof(v);
    return d > 0.0 ? d : 1.0;
  }();
  return s;
}

/// Deterministic seeded Zipf(α) rank sampler over [0, n):
/// P(rank r) ∝ 1/(r+1)^α. Inverse-CDF over a precomputed table, driven
/// by a splitmix64 counter stream — deliberately *not* a std::random
/// distribution, whose output is implementation-defined; two runs with
/// the same seed must draw the same sequence on every platform, or
/// bench tables stop being reproducible.
class ZipfGen {
 public:
  ZipfGen(std::size_t n, double alpha, std::uint64_t seed) : state_(seed) {
    cdf_.reserve(n);
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      cdf_.push_back(sum);
    }
    for (double& v : cdf_) v /= sum;
  }

  /// Next rank: 0 is the hottest object.
  std::uint64_t next() {
    std::uint64_t x = splitmix64_next(state_);
    // 53 uniform mantissa bits in [0, 1).
    double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::uint64_t>(it - cdf_.begin());
  }

  [[nodiscard]] std::size_t universe() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

inline node::DifSpec mk_dif(const std::string& name,
                            std::vector<std::string> members) {
  node::DifSpec s;
  s.cfg.name = naming::DifName{name};
  s.members = std::move(members);
  return s;
}

/// Receiving-side bookkeeping: unique/dup counts and one-way delay.
class Sink {
 public:
  explicit Sink(sim::Scheduler& sched) : sched_(sched) {}

  /// Highest sequence number the sink will track. SDUs claiming more are
  /// counted as corrupt and dropped instead of driving an unbounded
  /// resize (a garbage 8-byte seq would otherwise ask for exabytes).
  static constexpr std::uint64_t kMaxTrackedSeq = 1u << 24;

  void deliver(BytesView sdu) {
    ++sdus_;
    bytes_ += sdu.size();
    if (sdu.size() < 16) {
      ++corrupt_;  // too short to carry the [seq][stamp] header
      return;
    }
    BufReader r(sdu);
    std::uint64_t seq = r.get_u64();
    auto sent_ns = static_cast<std::int64_t>(r.get_u64());
    if (!r.ok() || seq >= kMaxTrackedSeq) {
      ++corrupt_;
      return;
    }
    if (seen_.size() <= seq) seen_.resize(seq + 1, false);
    if (seen_[seq]) {
      ++dups_;
      return;
    }
    seen_[seq] = true;
    delay_ms_.add((sched_.now() - SimTime{sent_ns}).to_ms());
  }

  [[nodiscard]] std::uint64_t sdus() const noexcept { return sdus_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return dups_; }
  [[nodiscard]] std::uint64_t corrupt() const noexcept { return corrupt_; }
  [[nodiscard]] std::uint64_t unique() const noexcept {
    std::uint64_t n = 0;
    for (bool b : seen_) n += b ? 1 : 0;
    return n;
  }
  [[nodiscard]] const Histogram& delay_ms() const noexcept { return delay_ms_; }

  void reset() {
    sdus_ = bytes_ = dups_ = corrupt_ = 0;
    seen_.clear();
    delay_ms_.clear();
  }

 private:
  sim::Scheduler& sched_;
  std::uint64_t sdus_ = 0, bytes_ = 0, dups_ = 0, corrupt_ = 0;
  std::vector<bool> seen_;
  Histogram delay_ms_;
};

/// Register `app` on `dif` at `on_node`, delivering into `sink`: every
/// accepted flow drains its bounded rx queue into the Sink on readable.
/// The allocator owns the flow state while flows live, so the accept
/// closure need not retain the handles.
inline void install_sink(Network& net, const std::string& on_node,
                         const naming::AppName& app, const naming::DifName& dif,
                         Sink& sink) {
  auto r = net.node(on_node).register_app(app, dif, [&sink](flow::Flow f) {
    f.on_readable([&sink](flow::Flow& fl) {
      while (auto sdu = fl.read()) sink.deliver(BytesView{*sdu});
    });
  });
  if (!r.ok()) {
    std::fprintf(stderr, "install_sink failed: %s\n", r.error().to_string().c_str());
    std::abort();
  }
  net.run_for(SimTime::from_ms(60));
}

/// Allocate a flow by name and abort unless it opens (benches expect
/// working setups). `pin` uses the allocate_flow_on escape hatch.
inline flow::Flow must_open_flow(Network& net, const std::string& from,
                                 const naming::AppName& local,
                                 const naming::AppName& remote,
                                 const flow::QosSpec& spec,
                                 const naming::DifName* pin = nullptr) {
  flow::Flow f = pin != nullptr
                     ? net.node(from).allocate_flow_on(*pin, local, remote, spec)
                     : net.node(from).allocate_flow(local, remote, spec);
  net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(10));
  if (!f.is_open()) {
    std::fprintf(stderr, "flow allocation failed: %s\n",
                 f.is_allocating() ? "timeout" : f.error().to_string().c_str());
    std::abort();
  }
  return f;
}

/// Open-loop CBR driver: offers `pps` stamped SDUs/s for `duration`.
/// Returns the number offered. Refused writes (backpressure) count as
/// offered-but-not-accepted; the sink's `unique()` measures delivery.
struct LoadResult {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
};

inline LoadResult run_load(Network& net, flow::Flow& f, double pps,
                           std::size_t sdu_bytes, SimTime duration,
                           std::uint64_t first_seq = 0) {
  LoadResult res;
  Bytes payload(std::max<std::size_t>(sdu_bytes, 16), 0xCD);
  SimTime end = net.now() + SimTime::from_sec(duration.to_sec() * duration_scale());
  SimTime gap = SimTime::from_sec(1.0 / pps);
  std::uint64_t seq = first_seq;
  while (net.now() < end) {
    BufWriter w(16);
    w.put_u64(seq);
    w.put_u64(static_cast<std::uint64_t>(net.now().ns));
    Bytes stamp = std::move(w).take();
    std::copy(stamp.begin(), stamp.end(), payload.begin());
    ++res.offered;
    ++seq;
    if (f.write(BytesView{payload}).ok()) ++res.accepted;
    net.run_for(gap);
  }
  return res;
}

/// Drain in-flight traffic after the load stops.
inline void settle(Network& net, SimTime t = SimTime::from_sec(2)) {
  net.run_for(SimTime::from_sec(t.to_sec() * duration_scale()));
}

/// Wall-clock stopwatch for events/sec measurements. Wall time is the
/// ONE nondeterministic number a bench may print — and only to stderr
/// or the JSON sidecar, never into the deterministic stdout table.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One throughput measurement: simulator events retired per wall second.
struct Throughput {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
};

/// Time `body()` and convert the event-counter delta it caused into a
/// rate. `events_before` is the counter reading taken just before.
template <typename Body>
Throughput measure_throughput(Network& net, std::uint64_t events_before,
                              Body&& body) {
  WallTimer w;
  body();
  Throughput t;
  t.events = net.events_executed() - events_before;
  t.wall_ms = w.ms();
  t.events_per_sec = t.wall_ms > 0.0 ? t.events / (t.wall_ms / 1e3) : 0.0;
  return t;
}

/// Append the standard throughput triple to an in-progress JSON object
/// (no trailing comma; the caller brackets the row).
inline void json_throughput_fields(std::FILE* f, const Throughput& t) {
  std::fprintf(f, "\"events\": %llu, \"events_per_sec\": %.0f, \"wall_ms\": %.1f",
               static_cast<unsigned long long>(t.events), t.events_per_sec,
               t.wall_ms);
}

}  // namespace rina::benchx
