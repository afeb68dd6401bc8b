// shard.hpp — conservative-lookahead parallel driver over per-shard
// timing wheels.
//
// The topology is partitioned into S shards at construction; each shard
// owns a full timing wheel (sim::Scheduler, reused verbatim) plus every
// node, link direction and timer assigned to it. Shards advance in
// global windows of length L = the minimum propagation delay over
// cross-shard links (classic conservative lookahead): during window k
// every shard runs (t_k, t_k + L] in parallel, and a PDU sent across a
// shard boundary inside window k has delivery time >= send time + L >=
// t_k + L — never inside the window a neighbor is concurrently
// executing. Draining boundary rings at window starts therefore never
// violates causality. With no cross-shard links the lookahead is
// infinite and run_until/run_for make a single window per call;
// run_until_pred caps each window at kPollStep so its predicate is
// seen within one step of turning true.
//
// Cross-shard PDUs travel in fixed-capacity SPSC rings, one per link
// direction (producer: the sending shard; consumer: the receiving
// shard). Each window executes in TWO phases separated by a barrier:
// first every shard drains its inbound rings (all of whose entries
// belong to completed windows) and delivers them in merged
// deterministic order; then, only after every drain has finished, the
// wheels run the window and push this window's crossings. All drains
// therefore happen-before all same-window pushes, so ring occupancy at
// any push equals the number of pushes already made this window by the
// (single) producer — a pure function of the event program. A full ring
// is a deterministic drop, never a thread-timing artifact.
//
// Determinism — the contract every bench table leans on: results are a
// function of the shard PLAN, never of the THREAD count. The shard
// count is fixed by the topology; threads only decide which worker
// executes which contiguous shard block. Drained entries are merged in
// (delivery time, boundary id, source seq) order — a total order — and
// scheduled into the destination wheel in that order, so equal-time
// cross deliveries fire identically at 1 thread and at 8.
//
// Threading: `threads`-1 std::threads plus the driver thread itself
// running block 0 (threads=1 spawns none and runs inline — the
// single-thread baseline pays zero synchronization). Two condvar
// dispatch/completion rounds per window — drain, barrier, run — the
// barrier being what keeps ring-full drops deterministic (see above).
// Everything outside
// dispatch_window — construction, control-plane calls between windows,
// counter reads — happens on the driver thread while workers are
// parked; the dispatch mutex orders those accesses against worker
// writes (TSan-clean). Corollary: mutating shared link/DIF state
// (set_up, enrollment, flow allocation) is legal ONLY from the driver
// thread between windows.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/spsc_ring.hpp"
#include "sim/time.hpp"

namespace rina::sim {

/// The simulated-time grain at which a pending predicate is polled:
/// ShardedScheduler::run_until_pred's longest window, and the step in
/// which a DIF's bring-up checks whether its management went quiet.
inline constexpr SimTime kPollStep = SimTime::from_ms(1);

/// One PDU crossing a shard boundary.
struct CrossEntry {
  std::int64_t at_ns = 0;    // delivery time; >= the consumer's window start
  std::uint64_t seq = 0;     // source-scheduler seq — deterministic tie-break
  std::uint64_t epoch = 0;   // link epoch at send
  std::uint64_t window = 0;  // producer's window number, stamped at push
  Packet frame;
};

/// One direction of one cross-shard link: an SPSC ring written by the
/// source shard during its run phase and drained empty by the
/// destination shard in the next window's drain phase.
class Boundary {
 public:
  Boundary(std::uint32_t id, int src_shard, int dst_shard, std::size_t capacity)
      : id_(id), src_(src_shard), dst_(dst_shard), ring_(capacity) {}

  /// Producer side (the source shard's worker during its run phase, or
  /// the driver thread between windows). Stamps the current window
  /// number. False = ring full, a deterministic drop; the caller counts
  /// it. Drains are barriered ahead of the run phase, so at any push
  /// the ring holds only this window's earlier pushes.
  bool push(CrossEntry&& e) {
    e.window = window_;
    if (ring_.push(std::move(e))) {
      ++pushed_;
      return true;
    }
    ++full_drops_;
    return false;
  }

  /// Consumer-side delivery hook: runs on the destination shard during
  /// the drain, entry by entry in merged deterministic order.
  void set_sink(std::function<void(CrossEntry&&)> sink) {
    sink_ = std::move(sink);
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] int src_shard() const noexcept { return src_; }
  [[nodiscard]] int dst_shard() const noexcept { return dst_; }
  /// Source-side counters; read from the driver thread between windows.
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  [[nodiscard]] std::uint64_t full_drops() const noexcept { return full_drops_; }

 private:
  friend class ShardedScheduler;
  std::uint32_t id_;
  int src_, dst_;
  SpscRing<CrossEntry> ring_;
  std::uint64_t window_ = 0;  // written by the source side only
  std::uint64_t pushed_ = 0;
  std::uint64_t full_drops_ = 0;
  std::function<void(CrossEntry&&)> sink_;
};

class ShardedScheduler {
 public:
  /// `shards` wheels driven by min(threads, shards) workers (including
  /// the driver thread). Thread count is an execution choice only; it
  /// must never appear in results.
  ShardedScheduler(int shards, int threads) {
    if (shards < 1) shards = 1;
    if (threads < 1) threads = 1;
    if (threads > shards) threads = shards;
    nshards_ = shards;
    nworkers_ = threads;
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s)
      shards_.push_back(std::make_unique<Scheduler>());
    inbound_.resize(static_cast<std::size_t>(shards));
    outbound_.resize(static_cast<std::size_t>(shards));
    scratch_.resize(static_cast<std::size_t>(shards));
    // Worker j (1-based) runs shards [lo(j), lo(j+1)); block 0 is the
    // driver's. Contiguous blocks keep the shard->worker map stable
    // across thread counts and cache-friendly within a worker.
    for (int j = 1; j < nworkers_; ++j) {
      threads_.emplace_back([this, j] { worker_main(j); });
    }
  }

  ~ShardedScheduler() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  [[nodiscard]] int shard_count() const noexcept { return nshards_; }
  [[nodiscard]] int thread_count() const noexcept { return nworkers_; }
  [[nodiscard]] Scheduler& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// Windows dispatched so far — deterministic, thread-count-invariant.
  [[nodiscard]] std::uint64_t windows() const noexcept { return window_; }

  /// Register one cross-shard link delay; the lookahead is the minimum.
  /// A non-positive delay would make the window length zero — reject it.
  void note_cross_delay(SimTime d) {
    if (d.ns <= 0) {
      std::fprintf(stderr,
                   "ShardedScheduler: cross-shard links need positive delay\n");
      std::abort();
    }
    if (d.ns < lookahead_.ns) lookahead_ = d;
  }

  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }

  /// Create the ring for one cross-shard link direction. Driver thread
  /// only, never while a window is running.
  Boundary& add_boundary(int src, int dst, std::size_t capacity) {
    auto b = std::make_unique<Boundary>(
        static_cast<std::uint32_t>(boundaries_.size()), src, dst, capacity);
    Boundary* raw = b.get();
    boundaries_.push_back(std::move(b));
    outbound_[static_cast<std::size_t>(src)].push_back(raw);
    inbound_[static_cast<std::size_t>(dst)].push_back(raw);
    return *raw;
  }

  /// Advance every shard to t in lookahead-bounded windows.
  void run_until(SimTime t) {
    while (now_ < t) {
      SimTime wend = t;
      if (lookahead_.ns != kInfiniteNs && now_ + lookahead_ < t)
        wend = now_ + lookahead_;
      ++window_;
      dispatch_window(wend);
      now_ = wend;
    }
  }

  void run_for(SimTime d) { run_until(now_ + d); }

  /// Run windows until pred() holds or the clock reaches deadline. The
  /// predicate is evaluated on the driver thread at window boundaries
  /// only (shard state is unreadable mid-window), so it resolves with
  /// one-window granularity — at most kPollStep, even when the lookahead
  /// is longer or infinite.
  template <typename Pred>
  bool run_until_pred(Pred&& pred, SimTime deadline) {
    if (pred()) return true;
    const SimTime step = lookahead_ < kPollStep ? lookahead_ : kPollStep;
    while (now_ < deadline) {
      SimTime wend = deadline;
      if (now_ + step < deadline) wend = now_ + step;
      ++window_;
      dispatch_window(wend);
      now_ = wend;
      if (pred()) return true;
    }
    return pred();
  }

  /// Sums over all shards; driver thread, between windows.
  [[nodiscard]] std::uint64_t executed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->executed();
    return n;
  }

  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->pending();
    return n;
  }

  /// Cross-shard traffic counters, summed over every boundary.
  [[nodiscard]] std::uint64_t cross_pushed() const {
    std::uint64_t n = 0;
    for (const auto& b : boundaries_) n += b->pushed();
    return n;
  }

  [[nodiscard]] std::uint64_t cross_full_drops() const {
    std::uint64_t n = 0;
    for (const auto& b : boundaries_) n += b->full_drops();
    return n;
  }

 private:
  static constexpr std::int64_t kInfiniteNs = INT64_MAX;

  struct Drained {
    std::uint32_t bid;
    CrossEntry e;
    Boundary* b;
  };

  [[nodiscard]] int block_lo(int j) const { return j * nshards_ / nworkers_; }
  [[nodiscard]] int block_hi(int j) const { return (j + 1) * nshards_ / nworkers_; }

  enum class Phase { kDrain, kRun };

  /// Drain phase of one shard's window: stamp outbound rings with the
  /// new window number, then pop the inbound rings empty and deliver in
  /// deterministic merge order. Every shard's drain completes (barrier
  /// in dispatch_window) before any shard's run phase pushes, so the
  /// rings hold only completed-window entries here.
  void drain_shard(int s) {
    auto si = static_cast<std::size_t>(s);
    for (Boundary* b : outbound_[si]) b->window_ = window_;
    auto& scratch = scratch_[si];
    scratch.clear();
    for (Boundary* b : inbound_[si]) {
      while (const CrossEntry* e = b->ring_.front()) {
        if (e->window >= window_) break;  // unreachable post-barrier; guard
        Drained d;
        d.bid = b->id_;
        d.b = b;
        b->ring_.pop(&d.e);
        scratch.push_back(std::move(d));
      }
    }
    // (time, boundary, source seq) is a total order: seqs are unique per
    // boundary, boundary ids globally — the merge cannot depend on the
    // incidental drain interleaving above.
    std::sort(scratch.begin(), scratch.end(),
              [](const Drained& x, const Drained& y) {
                if (x.e.at_ns != y.e.at_ns) return x.e.at_ns < y.e.at_ns;
                if (x.bid != y.bid) return x.bid < y.bid;
                return x.e.seq < y.e.seq;
              });
    for (Drained& d : scratch)
      if (d.b->sink_) d.b->sink_(std::move(d.e));
  }

  void exec_block(int j, Phase p, SimTime wend) {
    for (int s = block_lo(j); s < block_hi(j); ++s) {
      if (p == Phase::kDrain)
        drain_shard(s);
      else
        shards_[static_cast<std::size_t>(s)]->run_until(wend);
    }
  }

  void dispatch_phase(Phase p, SimTime wend) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_phase_ = p;
      job_wend_ = wend;
      ++gen_;
      remaining_ = static_cast<int>(threads_.size());
    }
    cv_work_.notify_all();
    exec_block(0, p, wend);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return remaining_ == 0; });
  }

  /// Two phases with a barrier between: all drains happen-before all
  /// same-window pushes, so ring occupancy at a push — and hence every
  /// full/drop decision — is independent of thread interleaving.
  void dispatch_window(SimTime wend) {
    if (threads_.empty()) {  // single-thread: inline, same phase order
      for (int s = 0; s < nshards_; ++s) drain_shard(s);
      for (int s = 0; s < nshards_; ++s)
        shards_[static_cast<std::size_t>(s)]->run_until(wend);
      return;
    }
    dispatch_phase(Phase::kDrain, wend);
    dispatch_phase(Phase::kRun, wend);
  }

  void worker_main(int j) {
    std::uint64_t seen = 0;
    for (;;) {
      Phase p;
      SimTime wend;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || gen_ != seen; });
        if (stop_) return;
        seen = gen_;
        p = job_phase_;
        wend = job_wend_;
      }
      exec_block(j, p, wend);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--remaining_ == 0) cv_done_.notify_one();
      }
    }
  }

  int nshards_ = 1;
  int nworkers_ = 1;
  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::vector<std::unique_ptr<Boundary>> boundaries_;
  std::vector<std::vector<Boundary*>> inbound_;   // by dst shard
  std::vector<std::vector<Boundary*>> outbound_;  // by src shard
  std::vector<std::vector<Drained>> scratch_;     // per-shard drain buffer
  SimTime lookahead_{kInfiniteNs};
  SimTime now_{};
  std::uint64_t window_ = 0;

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_, cv_done_;
  Phase job_phase_ = Phase::kDrain;
  SimTime job_wend_{};
  std::uint64_t gen_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
};

}  // namespace rina::sim
