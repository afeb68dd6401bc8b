// bench.hpp — what every perfbench workload shares: seeded input
// generation, the span tracer, counter snapshots and the per-round
// result a workload hands back to main.cpp.
//
// Time has two meanings here and the names say which. Host time
// (`*_s` measured with steady_clock, `*_ns` span durations) is what a
// user of the simulator waits for and varies run to run. Simulated
// time (`SimTime`, `lat_*_ms`, `converge_ms`) is what the simulated
// network delivers; it is a pure function of the workload and seed, so
// a change that only makes the simulator faster leaves it bit-identical.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "ipcp/ipcp.hpp"
#include "node/network.hpp"

namespace perfbench {

using namespace rina;

// ------------------------------------------------------------ inputs

/// splitmix64 stream: the one source of workload randomness. Same seed,
/// same inputs, on every platform (std distributions are not portable).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform duration in [lo, hi] at 1 us granularity.
  SimTime between(SimTime lo, SimTime hi) {
    auto span_us = static_cast<std::uint64_t>((hi.ns - lo.ns) / 1000);
    return SimTime{lo.ns + static_cast<std::int64_t>(below(span_us + 1)) * 1000};
  }

 private:
  std::uint64_t s_;
};

/// Derive an independent stream for one purpose (topology, traffic...).
inline Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  Rng r(seed ^ (purpose * 0xd1342543de82ef95ULL));
  r.next();
  return r;
}

// ------------------------------------------------------------ tracing

/// Span tracer for the calls the benchmark makes into each layer. Spans
/// live in per-thread buffers (the sharded scheduler runs sender and
/// sink callbacks on its workers) and are gathered after the round,
/// when every worker has been joined. A span opened on a thread with no
/// open span of its own takes the main thread's innermost open span as
/// its parent, so work a worker does inside the main thread's run_for nests
/// under it. Off, a span costs one relaxed load.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    std::uint64_t op;      // operation id; 0 = not tied to one operation
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  static void enable(bool on);
  static bool on() { return on_.load(std::memory_order_relaxed); }
  /// Every span recorded since the last call (quiesced threads only).
  static std::vector<Span> collect();

  class Scope {
   public:
    explicit Scope(const char* name, std::uint64_t op = 0) {
      if (on()) begin(name, op);
    }
    ~Scope() { close(); }
    /// End the span before the block does (idempotent).
    void close() {
      if (idx_ != kNone) end();
      idx_ = kNone;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    void begin(const char* name, std::uint64_t op);
    void end();
    std::size_t idx_ = kNone;
  };

 private:
  static std::atomic<bool> on_;
};

#define PB_CONCAT2(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT2(a, b)
/// Open a span for the rest of the enclosing block.
#define PB_SPAN(...) ::perfbench::Tracer::Scope PB_CONCAT(pb_span_, __LINE__)(__VA_ARGS__)

/// Host stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

// ------------------------------------------------------------ counters

/// One reading of every counter the per-layer metrics use: IPCP counters
/// summed over the workload's IPCPs, link counters over every link, the
/// packet arena's process totals and the scheduler's accessors.
using Counters = std::map<std::string, std::uint64_t>;

/// Read all counters. `ipcps` lists every IPCP the workload built (the
/// façade's sum_dif_counter walks all nodes per DIF, which at 500 DIFs
/// costs more than the measured phase).
Counters read_counters(node::Network& net, const std::vector<ipcp::Ipcp*>& ipcps);

/// b - a per key (counters only grow; gauges are read from `b` directly).
Counters delta(const Counters& a, const Counters& b);

// ------------------------------------------------------------ results

/// What one round of a workload (set up, measure, tear down) reports.
struct Round {
  double setup_s = 0;    // host: empty Network -> ready
  double measure_s = 0;  // host: the measured phase
  std::uint64_t ops = 0;        // completed operations in the measured phase
  std::uint64_t attempted = 0;  // operations attempted
  std::uint64_t failed = 0;     // refused / undelivered / not found / timed out
  Histogram lat_ms;             // sim: per-operation latency
  double sim_measure_s = 0;     // sim seconds the measured phase spans
  std::uint64_t nodes = 0;

  Counters at_setup;  // bring-up totals (read at ready)
  Counters window;    // measured-phase deltas
  /// Metrics only this workload can compute, by per-layer metric name.
  std::map<std::string, double> extra;

  bool correct = true;
  std::string why;  // first correctness violation
  void fail_check(const std::string& w) {
    if (correct) why = w;
    correct = false;
  }
};

struct Ctx {
  std::uint64_t seed = 1;
  int threads = 1;  // sharded workloads only
};

Round run_stack_bulk(const Ctx& ctx);
Round run_region_scale(const Ctx& ctx);
Round run_churn_ctl(const Ctx& ctx);
Round run_cdn_zipf(const Ctx& ctx);

// ------------------------------------------------------------ helpers

/// Every IPCP of `dif` on `members` (skips members that have none).
void collect_ipcps(node::Network& net, const naming::DifName& dif,
                   const std::vector<std::string>& members,
                   std::vector<ipcp::Ipcp*>& out);

/// Stamp [seq u64][sim send time i64] and fill the rest of `sdu` with a
/// pattern derived from (flow, seq), so the sink can verify every byte.
void stamp_sdu(Bytes& sdu, std::uint64_t flow, std::uint64_t seq, SimTime now);

/// Receiver side of stamp_sdu: per-flow duplicate/corruption checks and
/// one-way delay. One instance per flow, touched by one thread.
class SeqSink {
 public:
  /// `flow` is the sender's flow number written into the pattern.
  explicit SeqSink(std::uint64_t flow) : flow_(flow) {}
  /// A corrupt or duplicate SDU is counted, not delivered.
  void deliver(BytesView sdu, SimTime now);

  /// Deliveries whose send stamp falls in [from, to).
  [[nodiscard]] std::uint64_t unique_between(SimTime from, SimTime to) const;
  [[nodiscard]] std::uint64_t dups() const { return dups_; }
  [[nodiscard]] std::uint64_t corrupt() const { return corrupt_; }
  /// (send time, one-way delay ms) per unique delivery.
  [[nodiscard]] const std::vector<std::pair<SimTime, double>>& samples() const {
    return samples_;
  }

 private:
  std::uint64_t flow_;
  std::vector<bool> seen_;
  std::uint64_t unique_ = 0, dups_ = 0, corrupt_ = 0;
  std::vector<std::pair<SimTime, double>> samples_;
};

/// Wait (in sim time) until `f` leaves allocating; true when open.
bool wait_open(node::Network& net, flow::Flow& f, SimTime timeout);

}  // namespace perfbench
