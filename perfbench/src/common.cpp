// common.cpp — tracer buffers, counter snapshots and the stamped-SDU
// sink shared by the workloads.
#include <algorithm>
#include <mutex>

#include "bench.hpp"
#include "common/packet.hpp"

namespace perfbench {

// ------------------------------------------------------------ tracer

std::atomic<bool> Tracer::on_{false};

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadBuf;

/// Buffers of live threads plus the spans of threads that have exited.
struct Registry {
  std::mutex mu;
  std::vector<ThreadBuf*> live;
  std::vector<Tracer::Span> retired;
  std::uint64_t next_tid = 1;
  /// The main thread's innermost open span: the parent a worker's
  /// outermost span takes.
  std::atomic<std::uint64_t> ambient{0};

  static Registry& get() {
    static Registry r;
    return r;
  }
};

struct ThreadBuf {
  std::vector<Tracer::Span> spans;
  std::vector<std::size_t> open;  // indices of open spans, innermost last
  std::uint64_t tid = 0;
  bool main_thread = false;

  ThreadBuf() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lk(r.mu);
    tid = r.next_tid++;
    r.live.push_back(this);
  }
  ~ThreadBuf() {
    Registry& r = Registry::get();
    std::lock_guard<std::mutex> lk(r.mu);
    r.retired.insert(r.retired.end(), spans.begin(), spans.end());
    r.live.erase(std::find(r.live.begin(), r.live.end(), this));
  }
  ThreadBuf(const ThreadBuf&) = delete;
  ThreadBuf& operator=(const ThreadBuf&) = delete;

  void publish_ambient() {
    if (!main_thread) return;
    Registry::get().ambient.store(open.empty() ? 0 : spans[open.back()].id,
                                  std::memory_order_relaxed);
  }
};

thread_local ThreadBuf t_buf;

}  // namespace

void Tracer::enable(bool on) {
  t_buf.main_thread = true;  // the thread that toggles tracing runs the rounds
  on_.store(on, std::memory_order_relaxed);
}

std::vector<Tracer::Span> Tracer::collect() {
  Registry& r = Registry::get();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<Span> out = std::move(r.retired);
  r.retired.clear();
  for (ThreadBuf* b : r.live) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
    b->open.clear();
  }
  return out;
}

void Tracer::Scope::begin(const char* name, std::uint64_t op) {
  ThreadBuf& b = t_buf;
  std::uint64_t parent =
      b.open.empty() ? Registry::get().ambient.load(std::memory_order_relaxed)
                     : b.spans[b.open.back()].id;
  idx_ = b.spans.size();
  std::uint64_t id = (b.tid << 40) | (idx_ + 1);
  b.spans.push_back(Span{name, id, parent, op, now_ns(), 0});
  b.open.push_back(idx_);
  b.publish_ambient();
}

void Tracer::Scope::end() {
  ThreadBuf& b = t_buf;
  b.spans[idx_].end_ns = now_ns();
  b.open.pop_back();
  b.publish_ambient();
}

// ------------------------------------------------------------ counters

namespace {

// IPCP counters, summed over every IPCP of the workload.
constexpr const char* kIpcpCounters[] = {
    "pdus_tx", "pdus_retx", "acks_tx", "rto_fired", "cwnd_backoffs",
    "relayed", "rmt_drops", "ecn_marked", "drop_no_route", "app_rx_dropped",
    "sdus_delivered", "keepalives_sent", "riep_sent", "mgmt_bytes_sent",
    "spf_runs", "spf_vertices_recomputed", "spf_skipped", "lsus_flooded",
    "lsus_dup_suppressed", "deltas_originated", "delta_gap_pulls",
    "snapshot_fallbacks", "digest_rounds", "digest_finger_hits",
    "digest_finger_misses", "dir_cache_hits", "dir_cache_misses",
    "dir_queries_sent", "dir_cache_invalidations", "dir_targeted_updates",
    "cs_hits", "cs_misses", "cs_evictions", "cs_ghost_hits", "cs_replies",
};
constexpr const char* kLinkCounters[] = {
    "tx_bytes", "tx_frames", "queue_drops", "xshard_frames", "xshard_drops",
    "xshard_copies",
};

}  // namespace

Counters read_counters(node::Network& net, const std::vector<ipcp::Ipcp*>& ipcps) {
  Counters c;
  for (const char* name : kIpcpCounters) {
    std::uint64_t sum = 0;
    for (ipcp::Ipcp* p : ipcps) sum += p->counter_sum(name);
    c[name] = sum;
  }
  std::uint64_t qpeak = 0;
  for (ipcp::Ipcp* p : ipcps) qpeak = std::max(qpeak, p->counter_sum("rmt_queue_peak"));
  c["rmt_queue_peak"] = qpeak;
  for (const char* name : kLinkCounters) c[std::string("link.") + name] = net.sum_link_counter(name);

  PacketCounters pk = packet_counters_total();
  c["pkt.allocs"] = pk.allocs;
  c["pkt.payload_copies"] = pk.payload_copies;
  c["pkt.cow_copies"] = pk.cow_copies;
  c["pkt.headroom_reallocs"] = pk.headroom_reallocs;
  c["pkt.arena_hits"] = pk.arena_hits;

  c["sim.events"] = net.events_executed();
  c["sim.timers_pending"] = net.timers_pending();
  if (sim::ShardedScheduler* sh = net.sharded_sched()) c["sim.windows"] = sh->windows();
  return c;
}

Counters delta(const Counters& a, const Counters& b) {
  Counters d;
  for (const auto& [k, v] : b) {
    if (k == "rmt_queue_peak" || k == "sim.timers_pending") {
      d[k] = v;  // gauges: the reading at the end
      continue;
    }
    auto it = a.find(k);
    std::uint64_t before = it == a.end() ? 0 : it->second;
    d[k] = v >= before ? v - before : 0;
  }
  return d;
}

void collect_ipcps(node::Network& net, const naming::DifName& dif,
                   const std::vector<std::string>& members,
                   std::vector<ipcp::Ipcp*>& out) {
  for (const std::string& m : members)
    if (ipcp::Ipcp* p = net.node(m).ipcp(dif)) out.push_back(p);
}

// ------------------------------------------------------------ SDUs

namespace {

std::uint8_t pattern_byte(std::uint64_t flow, std::uint64_t seq, std::size_t i) {
  return static_cast<std::uint8_t>((flow * 131 + seq * 7 + i) & 0xFF);
}

}  // namespace

void stamp_sdu(Bytes& sdu, std::uint64_t flow, std::uint64_t seq, SimTime now) {
  BufWriter w(16);
  w.put_u64(seq);
  w.put_u64(static_cast<std::uint64_t>(now.ns));
  Bytes head = std::move(w).take();
  std::copy(head.begin(), head.end(), sdu.begin());
  for (std::size_t i = head.size(); i < sdu.size(); ++i)
    sdu[i] = pattern_byte(flow, seq, i);
}

void SeqSink::deliver(BytesView sdu, SimTime now) {
  if (sdu.size() < 16) {
    ++corrupt_;
    return;
  }
  BufReader r(sdu);
  std::uint64_t seq = r.get_u64();
  SimTime sent{static_cast<std::int64_t>(r.get_u64())};
  constexpr std::uint64_t kMaxSeq = 1u << 24;
  if (!r.ok() || seq >= kMaxSeq) {
    ++corrupt_;
    return;
  }
  for (std::size_t i = 16; i < sdu.size(); ++i) {
    if (sdu[i] != pattern_byte(flow_, seq, i)) {
      ++corrupt_;
      return;
    }
  }
  if (seen_.size() <= seq) seen_.resize(seq + 1, false);
  if (seen_[seq]) {
    ++dups_;
    return;
  }
  seen_[seq] = true;
  ++unique_;
  samples_.emplace_back(sent, (now - sent).to_ms());
}

std::uint64_t SeqSink::unique_between(SimTime from, SimTime to) const {
  std::uint64_t n = 0;
  for (const auto& [sent, d] : samples_) n += (sent >= from && sent < to) ? 1 : 0;
  return n;
}

bool wait_open(node::Network& net, flow::Flow& f, SimTime timeout) {
  net.run_until([&] { return !f.is_allocating(); }, timeout);
  return f.is_open();
}

}  // namespace perfbench
