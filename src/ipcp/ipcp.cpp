// ipcp.cpp — the IPC process implementation: management plane (hello,
// enrollment, directory and link-state dissemination as RIEP objects),
// flow allocation, and the RMT datapath.

#include "ipcp/ipcp.hpp"

#include <algorithm>
#include <cstring>

#include "common/splitmix.hpp"
#include "content/protocol.hpp"

namespace rina::ipcp {

namespace {

// Management object classes: one RIEP dispatch table instead of a zoo of
// protocols.
constexpr const char* kClsHello = "Hello";
constexpr const char* kClsKeepAlive = "KeepAlive";
constexpr const char* kClsJoinReq = "JoinReq";
constexpr const char* kClsJoinChallenge = "JoinChallenge";
constexpr const char* kClsJoinResp = "JoinResp";
constexpr const char* kClsJoinAccept = "JoinAccept";
constexpr const char* kClsJoinReject = "JoinReject";
constexpr const char* kClsBye = "Bye";
constexpr const char* kClsLsu = "LSU";
constexpr const char* kClsLsdbSync = "LsdbSync";  // snapshot to a new peer
constexpr const char* kClsDirUpd = "DirUpd";
constexpr const char* kClsDirSync = "DirSync";
constexpr const char* kClsDirEntry = "DirEntry";  // replicated rib object
constexpr const char* kClsDirRead = "DirRead";          // query up the chain
constexpr const char* kClsDirReadReply = "DirReadReply";
constexpr const char* kClsDirInval = "DirInval";        // cache invalidation
constexpr const char* kClsRibFinger = "RibFinger";      // anti-entropy opener
constexpr const char* kClsRibDigest = "RibDigest";      // anti-entropy fallback
constexpr const char* kClsRibDelta = "RibDelta";        // versioned deltas
constexpr const char* kClsRibPull = "RibPull";          // gap / name pull
constexpr const char* kClsFlowReq = "FlowReq";
constexpr const char* kClsFlowResp = "FlowResp";
constexpr const char* kClsFlowRelease = "FlowRelease";
constexpr const char* kClsFlowReleaseAck = "FlowReleaseAck";

constexpr SimTime kHelloRetry = SimTime::from_ms(200);
constexpr SimTime kJoinTimeout = SimTime::from_ms(600);
constexpr SimTime kJoinRetryGap = SimTime::from_ms(120);
constexpr SimTime kLsuDebounce = SimTime::from_ms(1);
constexpr SimTime kDrainRetry = SimTime::from_us(200);
// Directory lookups are local to the IPCP's replica, so polling for an
// entry (or for our own enrollment) costs nothing on the wire.
constexpr SimTime kAllocRetry = SimTime::from_ms(10);
constexpr SimTime kAllocResend = SimTime::from_ms(500);
constexpr SimTime kAllocDeadline = SimTime::from_sec(8);
// Release handshake: retry until the peer acks, then give up and retire
// unilaterally (the peer may be gone — a leaked port would be worse).
constexpr SimTime kReleaseRetry = SimTime::from_ms(250);
constexpr int kMaxReleaseAttempts = 4;
// Writability poll gap for unreliable flows blocked on a full RMT class
// queue (no ack clock exists to wake them).
constexpr SimTime kRmtPollGap = SimTime::from_us(400);
constexpr int kMaxJoinAttempts = 3;
// Hierarchical directory queries: retry against routing convergence,
// then report the miss (the flow allocator keeps polling on its own).
constexpr SimTime kDirQueryRetry = SimTime::from_ms(50);
constexpr int kMaxDirQueryAttempts = 4;
constexpr std::size_t kMaxDirInterest = 128;
// Snapshot fallback size for delta-sync pulls that fell off the log.
constexpr std::size_t kSyncSnapshotEntries = 4096;
constexpr std::uint64_t kHelloNonce = 0x48454c4c4f754c4cULL;
// Keep management snapshots comfortably inside the PCI's u16 payload
// length (there is no fragmentation); overflow is truncated + counted.
constexpr std::size_t kSnapshotBudget = 56000;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void put_addr(BufWriter& w, naming::Address a) { w.put_u32(a.key()); }

/// One LSU record: (origin, seq, neighbor list). It is an LSU's value
/// and, concatenated, an LSDB snapshot.
void put_lsu(BufWriter& w, naming::Address origin, std::uint64_t seq,
             const std::vector<naming::Address>& neighbors) {
  put_addr(w, origin);
  w.put_u64(seq);
  w.put_u16(static_cast<std::uint16_t>(neighbors.size()));
  for (auto n : neighbors) put_addr(w, n);
}

Bytes lsu_value(naming::Address origin, std::uint64_t seq,
                const std::vector<naming::Address>& neighbors) {
  BufWriter w(16 + 4 * neighbors.size());
  put_lsu(w, origin, seq, neighbors);
  return std::move(w).take();
}

rib::RiepMessage lsu_msg(naming::Address origin, std::uint64_t seq,
                         const std::vector<naming::Address>& neighbors) {
  rib::RiepMessage m;
  m.op = rib::RiepOp::write;
  m.obj_name = "/routing/lsu/" + origin.to_string();
  m.obj_class = kClsLsu;
  m.value = lsu_value(origin, seq, neighbors);
  return m;
}

/// Management messages enter the datapath as headroomed Packets so the
/// PCI (and any lower DIFs' PCIs on stacked paths) prepend in place.
Packet mgmt_payload(const rib::RiepMessage& m) {
  Bytes raw = m.encode();
  return Packet::with_headroom(kDefaultHeadroom, BytesView{raw});
}

/// The one keepalive message every node sends, pre-encoded. Keepalives
/// carry no per-node state, so at scale re-running the RIEP encoder per
/// port per tick is pure waste; keepalive_tick sends and handle_mgmt
/// keys off these exact bytes.
const Bytes& keepalive_wire() {
  static const Bytes wire = [] {
    rib::RiepMessage m;
    m.op = rib::RiepOp::write;
    m.obj_name = "/dif/keepalive";
    m.obj_class = kClsKeepAlive;
    return m.encode();
  }();
  return wire;
}

naming::Address get_addr(BufReader& r) {
  std::uint32_t k = r.get_u32();
  return naming::Address{static_cast<std::uint16_t>(k >> 16),
                         static_cast<std::uint16_t>(k & 0xFFFF)};
}

/// The neighbor list that ends an LSU record (put_lsu).
std::vector<naming::Address> get_neighbors(BufReader& r) {
  std::uint16_t n = r.get_u16();
  std::vector<naming::Address> out;
  out.reserve(n);
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) out.push_back(get_addr(r));
  return out;
}

void put_app(BufWriter& w, const naming::AppName& a) {
  w.put_lpstring(a.process);
  w.put_lpstring(a.instance);
}

naming::AppName get_app(BufReader& r) {
  naming::AppName a;
  a.process = r.get_lpstring();
  a.instance = r.get_lpstring();
  return a;
}

/// A snapshot block (LSDB, directory): a u16 count, then `put` for each
/// of `records` until the records pass `budget` bytes. Snapshots must
/// fit the PCI's u16 payload length, so the rest is dropped and counted.
template <typename Records, typename Put>
void put_snapshot(BufWriter& w, const Records& records, std::size_t budget,
                  Stats& stats, Put put) {
  BufWriter body(256);
  std::uint16_t n = 0;
  for (const auto& [key, value] : records) {
    if (body.size() > budget) {
      stats.inc("snapshot_truncated");
      break;
    }
    put(body, key, value);
    ++n;
  }
  w.put_u16(n);
  w.put_bytes(BytesView{std::move(body).take()});
}

}  // namespace

// ============================ Ipcp core ============================

Ipcp::Ipcp(IpcpHost& host, const dif::DifConfig& cfg, std::uint32_t dif_id)
    : host_(host),
      cfg_(cfg),
      dif_id_(dif_id),
      routing_(cfg, stats_),
      rmt_(*this),
      fa_(*this),
      enrollment_(*this) {
  c_hellos_sent_ = stats_.slot("hellos_sent");
  c_keepalives_sent_ = stats_.slot("keepalives_sent");
  c_lsus_flooded_ = stats_.slot("lsus_flooded");
  c_riep_sent_ = stats_.slot("riep_sent");
  c_mgmt_bytes_ = stats_.slot("mgmt_bytes_sent");
  dir_cache_.configure(cfg_.dir_cache_ttl, cfg_.dir_cache_entries);
  sync_.set_log_capacity(cfg_.rib_log_entries);
  if (cfg_.cubes.empty()) cfg_.cubes = dif::default_cubes();
  if (cfg_.rmt_content_store_enabled && cfg_.rmt_content_store_objects > 0)
    cstore_ = std::make_unique<content::ContentStore>(
        cfg_.rmt_content_store_objects, cfg_.rmt_content_store_ttl);
}

std::uint64_t Ipcp::counter_sum(std::string_view name) const {
  std::uint64_t n = stats_.get(name) + rmt_.stats_.get(name) +
                    fa_.stats_.get(name) + enrollment_.stats_.get(name);
  if (cstore_) n += cstore_->stats().get(name);
  for (const auto& rec : fa_.flows_)
    if (rec && rec->conn) n += rec->conn->stats().get(name);
  return n;
}

void Ipcp::bootstrap_member(naming::Address addr) {
  address_ = addr;
  enrolled_ = true;
  rib_.upsert("/dif/name", "DifName", to_bytes(cfg_.name.str()));
  rib_.upsert("/dif/address", "Address", to_bytes(addr.to_string()));
  if (cfg_.rib_delta_sync) start_sync_timer();
  if (cfg_.keepalive_enabled && !keepalive_timer_.armed()) {
    keepalive_tick();
    keepalive_timer_ =
        sched().periodic(cfg_.keepalive_interval, [this] { keepalive_tick(); });
  }
}

std::uint64_t Ipcp::auth_token(std::uint64_t nonce) const {
  return splitmix64(nonce ^ fnv1a(cfg_.auth_secret));
}

bool Ipcp::ports_paired() const {
  for (const Port& p : ports_)
    if (p.carrier && !p.peer_enrolled) return false;
  return true;
}

bool Ipcp::port_up(relay::PortIndex idx) const {
  if (idx >= ports_.size()) return false;
  const Port& p = ports_[idx];
  return p.carrier && p.alive;
}

relay::PortIndex Ipcp::add_port(PortInit init) {
  Port p;
  p.tx = std::move(init.tx);
  p.is_wire = init.is_wire;
  p.last_heard = sched().now();
  relay::EgressQueues::Config qc;
  qc.sched = cfg_.rmt_sched;
  qc.capacity_pdus = cfg_.rmt_queue_pdus;
  qc.mark_threshold = cfg_.rmt_ecn_threshold;
  p.queue.configure(qc);
  ports_.push_back(std::move(p));
  return static_cast<relay::PortIndex>(ports_.size() - 1);
}

void Ipcp::start_port(relay::PortIndex idx) {
  if (idx >= ports_.size()) return;
  ports_[idx].last_heard = sched().now();
  send_hello(idx);
}

void Ipcp::send_hello(relay::PortIndex idx) {
  if (!enrolled_) return;
  Port& p = ports_[idx];
  p.hello_sent = true;
  rib::RiepMessage m;
  m.op = rib::RiepOp::create;
  m.obj_name = "/dif/members/" + host_.node_name();
  m.obj_class = kClsHello;
  BufWriter w(32);
  put_addr(w, address_);
  w.put_u64(auth_token(kHelloNonce));
  w.put_lpstring(host_.node_name());
  m.value = std::move(w).take();
  send_mgmt(idx, m);
  // A lost hello would strand the adjacency half-open; repeat until the
  // peer is heard from. The timer lives in the port, so it dies with us.
  p.hello_timer = sched().schedule_after(kHelloRetry, [this, idx] {
    Port& pp = ports_[idx];
    if (enrolled_ && pp.carrier && !pp.peer_enrolled) send_hello(idx);
  });
}

void Ipcp::set_port_carrier(relay::PortIndex idx, bool up) {
  if (idx >= ports_.size()) return;
  Port& p = ports_[idx];
  if (p.carrier == up) return;
  p.carrier = up;
  if (up) {
    p.alive = true;
    p.last_heard = sched().now();
  }
  adjacency_changed();
}

void Ipcp::port_ready(relay::PortIndex idx) { rmt_.drain(idx); }

void Ipcp::on_port_frame(relay::PortIndex idx, Packet&& frame) {
  if (idx >= ports_.size()) return;
  auto decoded = efcp::Pdu::decode_packet(std::move(frame));
  if (!decoded.ok()) {
    rmt_.stats_.inc("drop_decode");
    return;
  }
  efcp::Pdu& pdu = decoded.value();
  Port& p = ports_[idx];
  p.last_heard = sched().now();

  if (pdu.pci.type == efcp::PduType::mgmt && pdu.pci.dest.is_null()) {
    handle_mgmt(idx, pdu);
    return;
  }
  // Everything with an address in it crosses the membership gate: a port
  // whose peer never authenticated gets silence, not errors (§6.1).
  if (!p.peer_enrolled) {
    rmt_.stats_.inc("drop_unenrolled_port");
    return;
  }
  if (pdu.pci.dest == address_ && !address_.is_null()) {
    deliver_local(std::move(pdu));
    return;
  }
  // Relay: not ours, forward inside the DIF.
  if (pdu.pci.ttl == 0) {
    rmt_.stats_.inc("drop_ttl");
    return;
  }
  --pdu.pci.ttl;
  // Per-DIF content-store policy: an interest that hits the local store
  // is answered from here and never continues toward the origin.
  if (cstore_ && pdu.pci.type == efcp::PduType::data &&
      content_store_filter(pdu))
    return;
  auto out = rmt_.fib_.lookup(pdu.pci.dest,
                              [this](relay::PortIndex i) { return port_up(i); });
  if (!out) {
    rmt_.stats_.inc("drop_no_route");
    return;
  }
  ++*rmt_.c_relayed_;
  rmt_.egress(*out, std::move(pdu));
}

void Ipcp::deliver_local(efcp::Pdu&& pdu) {
  if (pdu.pci.type == efcp::PduType::mgmt) {
    auto m = rib::RiepMessage::decode(pdu.payload.view());
    if (!m.ok()) {
      rmt_.stats_.inc("drop_decode");
      return;
    }
    const rib::RiepMessage& msg = m.value();
    if (msg.obj_class == kClsFlowReq) {
      fa_.on_flow_req(pdu.pci, msg);
    } else if (msg.obj_class == kClsFlowResp) {
      fa_.on_flow_resp(pdu.pci, msg);
    } else if (msg.obj_class == kClsFlowRelease) {
      fa_.on_flow_release(pdu.pci, msg);
    } else if (msg.obj_class == kClsFlowReleaseAck) {
      fa_.on_flow_release_ack(pdu.pci, msg);
    } else if (msg.obj_class == kClsDirUpd) {
      // A targeted registration update (hierarchical mode): apply to the
      // local directory, never re-flood.
      (void)apply_dir_update(msg);
    } else if (msg.obj_class == kClsDirRead) {
      handle_dir_read(pdu.pci, msg);
    } else if (msg.obj_class == kClsDirReadReply) {
      handle_dir_read_reply(msg);
    } else if (msg.obj_class == kClsDirInval) {
      handle_dir_inval(msg);
    }
    return;
  }
  // Data / ack: demultiplex on the destination CEP — two dense vector
  // indexes, not a map walk; this is the per-PDU hot path.
  auto* rec = fa_.by_cep(pdu.pci.dest_cep);
  if (rec == nullptr || !rec->conn) {
    rmt_.stats_.inc("drop_no_cep");
    return;
  }
  rec->conn->on_pdu(pdu.pci, std::move(pdu.payload));
}

bool Ipcp::content_store_filter(efcp::Pdu& pdu) {
  // Non-content traffic must fall through untouched — the magic peek
  // keeps the common relay path at a 5-byte compare.
  if (!content::looks_like_content(pdu.payload.view())) return false;
  auto decoded = content::decode(pdu.payload.view());
  if (!decoded.ok()) return false;
  const content::Message& msg = decoded.value();
  content::ObjectKey key{msg.name, msg.object_id};

  if (msg.type == content::MsgType::interest) {
    const Bytes* obj = cstore_->lookup(key, sched().now());
    if (obj == nullptr) return false;  // miss: continue toward the origin
    // Answer from here wearing the origin's endpoint identity — the
    // interest's (src, dest) and CEP pair swapped, its sequence number
    // echoed. On the unreliable class content flows use, the client
    // cannot tell this reply from the origin's; the cache stays
    // invisible above the DIF. TTL restarts: the reply is a fresh PDU
    // originated by this IPCP.
    Bytes reply_bytes =
        content::encode_data(msg.request_id, msg.name, msg.object_id,
                             BytesView{*obj});
    efcp::Pdu reply;
    reply.pci.type = efcp::PduType::data;
    reply.pci.qos_id = pdu.pci.qos_id;
    reply.pci.dest = pdu.pci.src;
    reply.pci.src = pdu.pci.dest;
    reply.pci.dest_cep = pdu.pci.src_cep;
    reply.pci.src_cep = pdu.pci.dest_cep;
    reply.pci.seq = pdu.pci.seq;
    reply.payload = Packet::with_headroom(kDefaultHeadroom, BytesView{reply_bytes});
    rmt_.stats_.inc("cs_replies");
    rmt_.send(std::move(reply));
    return true;  // the interest stops here
  }
  // A data PDU passing through is an eviction-policy-priced chance to
  // serve the next interest locally; it still continues to its
  // requester. Nacks are not cached (negative caching is a policy this
  // DIF does not run).
  if (msg.type == content::MsgType::data)
    cstore_->insert(key, msg.object, sched().now());
  return false;
}

// ---------------------- management dispatch ----------------------

void Ipcp::send_mgmt(relay::PortIndex idx, const rib::RiepMessage& m) {
  send_mgmt_wire(idx, m.obj_class, m.encode());
}

void Ipcp::send_mgmt_wire(relay::PortIndex idx, const std::string& cls,
                          const Bytes& wire) {
  if (idx >= ports_.size()) return;
  const bool keepalive = cls == kClsKeepAlive;
  if (cls == kClsHello) {
    ++*c_hellos_sent_;
  } else if (keepalive) {
    ++*c_keepalives_sent_;
  } else if (cls == kClsLsu) {
    ++*c_lsus_flooded_;
  } else {
    ++*c_riep_sent_;
    if (cls == kClsJoinReq) enrollment_.stats_.inc("join_requests_sent");
  }
  efcp::Pdu pdu;
  pdu.pci.type = efcp::PduType::mgmt;
  pdu.pci.src = address_;
  pdu.pci.dest = naming::Address{};  // port-local
  pdu.payload = Packet::with_headroom(kDefaultHeadroom, BytesView{wire});
  *c_mgmt_bytes_ += pdu.payload.view().size();
  const bool dropped = !rmt_.egress(idx, std::move(pdu));
  if (!keepalive) {
    ++mgmt_sent_;
    if (dropped) ++mgmt_dropped_;
  }
}

void Ipcp::send_routed_mgmt(naming::Address dest, const rib::RiepMessage& m) {
  stats_.inc("riep_sent");
  efcp::Pdu pdu;
  pdu.pci.type = efcp::PduType::mgmt;
  pdu.pci.src = address_;
  pdu.pci.dest = dest;
  pdu.payload = mgmt_payload(m);
  *c_mgmt_bytes_ += pdu.payload.view().size();
  rmt_.send(std::move(pdu));
}

void Ipcp::handle_mgmt(relay::PortIndex idx, const efcp::Pdu& pdu) {
  // Keepalives are the one mgmt message sent per port per tick forever;
  // a byte-compare against the canonical encoding skips the full RIEP
  // decode. Semantics match the slow path below exactly: keepalive is
  // none of the pre-enrollment classes, so the membership gate applies.
  {
    BytesView v = pdu.payload.view();
    const Bytes& ka = keepalive_wire();
    if (v.size() == ka.size() &&
        std::memcmp(v.data(), ka.data(), v.size()) == 0) {
      if (!ports_[idx].peer_enrolled) {
        rmt_.stats_.inc("drop_unenrolled_port");
      } else {
        handle_keepalive(idx);
      }
      return;
    }
  }
  ++mgmt_received_;
  auto decoded = rib::RiepMessage::decode(pdu.payload.view());
  if (!decoded.ok()) {
    rmt_.stats_.inc("drop_decode");
    return;
  }
  const rib::RiepMessage& m = decoded.value();
  const std::string& cls = m.obj_class;
  Port& p = ports_[idx];

  if (cls == kClsHello) {
    handle_hello(idx, m);
  } else if (cls == kClsJoinReq || cls == kClsJoinChallenge ||
             cls == kClsJoinResp || cls == kClsJoinAccept ||
             cls == kClsJoinReject) {
    handle_join_msg(idx, m);
  } else if (!p.peer_enrolled) {
    // Non-members only get to talk enrollment.
    rmt_.stats_.inc("drop_unenrolled_port");
  } else if (cls == kClsKeepAlive) {
    handle_keepalive(idx);
  } else if (cls == kClsBye) {
    handle_bye(idx);
  } else if (cls == kClsLsu) {
    handle_lsu(idx, m);
  } else if (cls == kClsLsdbSync) {
    handle_lsdb_sync(idx, m);
  } else if (cls == kClsDirUpd) {
    handle_dir_update(idx, m);
  } else if (cls == kClsDirSync) {
    handle_dir_sync(m);
  } else if (cls == kClsRibDelta) {
    handle_rib_delta(idx, m);
  } else if (cls == kClsRibFinger) {
    handle_rib_finger(idx, m);
  } else if (cls == kClsRibDigest) {
    handle_rib_digest(idx, m);
  } else if (cls == kClsRibPull) {
    handle_rib_pull(idx, m);
  }
}

void Ipcp::handle_hello(relay::PortIndex idx, const rib::RiepMessage& m) {
  if (!enrolled_) return;
  Port& p = ports_[idx];
  BufReader r(BytesView{m.value});
  naming::Address addr = get_addr(r);
  std::uint64_t token = r.get_u64();
  (void)r.get_lpstring();
  if (!r.ok()) return;
  if (cfg_.auth_policy != "none" && token != auth_token(kHelloNonce)) {
    stats_.inc("hello_rejected");
    return;
  }
  bool changed = !p.peer_enrolled || p.peer != addr;
  p.peer = addr;
  p.peer_enrolled = true;
  p.alive = true;
  if (!p.hello_sent) send_hello(idx);
  if (changed) {
    // A fresh adjacency: hand the peer what the flood could not have
    // reached it with. Under delta sync that is a digest (the peer pulls
    // just what differs, LSUs included). Otherwise it is the LSDB — an
    // LSU flooded before this wire came up never crossed it — and, unless
    // naming is hierarchical (nothing replicated to reconcile), the
    // directory.
    if (cfg_.rib_delta_sync) {
      send_port_digest(idx);
    } else {
      send_lsdb_sync(idx);
      if (!cfg_.dir_hierarchical) send_dir_sync(idx);
    }
    adjacency_changed();
  }
}

void Ipcp::handle_keepalive(relay::PortIndex idx) {
  Port& p = ports_[idx];
  if (!p.alive) {
    p.alive = true;
    adjacency_changed();
  }
}

void Ipcp::handle_bye(relay::PortIndex idx) {
  Port& p = ports_[idx];
  if (!p.peer.is_null()) {
    dir_.remove_at(p.peer);
    std::size_t n = dir_cache_.invalidate_at(p.peer);
    if (n != 0) stats_.inc("dir_cache_invalidations", n);
  }
  p.peer_enrolled = false;
  adjacency_changed();
}

// ---------------------------- routing ----------------------------

naming::AddrMap<std::vector<relay::PortIndex>> Ipcp::live_neighbors() const {
  naming::AddrMap<std::vector<relay::PortIndex>> out;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    if (usable(p)) out[p.peer].push_back(static_cast<relay::PortIndex>(i));
  }
  return out;
}

std::vector<naming::Address> Ipcp::neighbor_set() const {
  std::vector<naming::Address> out;
  for (const auto& [addr, ports] : live_neighbors()) out.push_back(addr);
  return out;
}

void Ipcp::rebuild_neighbor_ports() {
  // Step-2 bindings: *every* known attachment to a neighbor, live or not —
  // liveness is checked per-PDU at lookup time (late binding).
  naming::AddrMap<std::vector<relay::PortIndex>> all;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    if (p.peer_enrolled && !p.peer.is_null())
      all[p.peer].push_back(static_cast<relay::PortIndex>(i));
  }
  for (const auto& [addr, ports] : all)
    rmt_.fib_.set_neighbor_ports(addr, std::move(ports));
}

void Ipcp::adjacency_changed() {
  if (departed_) return;
  rebuild_neighbor_ports();
  std::vector<naming::Address> now_set = neighbor_set();
  schedule_spf();
  if (now_set == last_neighbor_set_) return;
  last_neighbor_set_ = std::move(now_set);
  if (lsu_timer_.armed() || !enrolled_) return;
  lsu_timer_ = sched().schedule_after(kLsuDebounce, [this] { originate_lsu(); });
}

void Ipcp::originate_lsu() {
  if (!enrolled_ || address_.is_null()) return;
  std::vector<naming::Address> neighbors = neighbor_set();
  std::uint64_t seq = routing_.originate(address_, neighbors);
  stats_.inc("lsus_originated");

  rib::RiepMessage m = lsu_msg(address_, seq, neighbors);
  if (cfg_.rib_delta_sync) {
    // The LSU's own sequence number doubles as the replicated object's
    // version; dissemination is a logged delta, not a full-value flood.
    (void)rib_.upsert_versioned(m.obj_name, m.obj_class, m.value, seq);
    disseminate_delta(m.obj_name, m.obj_class, std::move(m.value), seq);
  } else {
    // Flooded LSUs live in the LSDB alone: no RIB copy, since only
    // delta sync reads LSUs back out of the RIB.
    flood(m, std::nullopt);
  }
  schedule_spf();
}

std::size_t Ipcp::flood(const rib::RiepMessage& m,
                        std::optional<relay::PortIndex> except) {
  const Bytes wire = m.encode();  // once per flood, not once per port
  std::size_t sent = 0;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    auto idx = static_cast<relay::PortIndex>(i);
    if (except && *except == idx) continue;
    if (!usable(ports_[i])) continue;
    send_mgmt_wire(idx, m.obj_class, wire);
    ++sent;
  }
  return sent;
}

void Ipcp::put_lsdb(BufWriter& w) {
  put_snapshot(w, routing_.lsdb(), kSnapshotBudget / 2, stats_,
               [](BufWriter& b, naming::Address origin, const auto& rec) {
                 put_lsu(b, origin, rec.seq, rec.neighbors);
               });
}

void Ipcp::send_lsdb_sync(relay::PortIndex idx) {
  if (routing_.lsdb().empty()) return;
  rib::RiepMessage m;
  m.op = rib::RiepOp::write;
  m.obj_name = "/routing/lsdb";
  m.obj_class = kClsLsdbSync;
  BufWriter w(256);
  put_lsdb(w);
  m.value = std::move(w).take();
  send_mgmt(idx, m);
}

void Ipcp::handle_lsdb_sync(relay::PortIndex idx, const rib::RiepMessage& m) {
  // Each record newer than ours is taken exactly as an LSU heard on this
  // port would be — installed, re-flooded to the other ports, SPF
  // scheduled — so the rest of our side of the new wire learns it too.
  BufReader r(BytesView{m.value});
  std::uint16_t n = r.get_u16();
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
    naming::Address origin = get_addr(r);
    std::uint64_t seq = r.get_u64();
    std::vector<naming::Address> neighbors = get_neighbors(r);
    if (!r.ok() || origin.is_null() || origin == address_) continue;
    if (routing_.is_newer(origin, seq))
      handle_lsu(idx, lsu_msg(origin, seq, neighbors));
  }
}

void Ipcp::handle_lsu(relay::PortIndex idx, const rib::RiepMessage& m) {
  ++lazy_cell(c_lsus_received_, "lsus_received");
  BufReader r(BytesView{m.value});
  naming::Address origin = get_addr(r);
  std::uint64_t seq = r.get_u64();
  if (!r.ok() || origin.is_null()) return;
  if (origin == address_) return;
  // Duplicate guard *before* the (larger) neighbor-list decode: a
  // byte-identical re-flood is recognized from (origin, seq) alone and
  // never re-floods, never schedules SPF.
  if (!routing_.is_newer(origin, seq)) {
    ++lazy_cell(c_lsus_dup_suppressed_, "lsus_dup_suppressed");
    return;  // stale or duplicate
  }
  std::vector<naming::Address> neighbors = get_neighbors(r);
  if (!r.ok()) return;
  (void)routing_.learn(origin, seq, std::move(neighbors));
  flood(m, idx);
  schedule_spf();
}

void Ipcp::schedule_spf() {
  if (!departed_) routing_.schedule(sched(), [this] { run_spf(); });
}

void Ipcp::run_spf() {
  if (!enrolled_ || address_.is_null()) return;
  routing_.run(address_, neighbor_set(), rmt_.fib_);
  rebuild_neighbor_ports();
}

// --------------------------- keepalives ---------------------------

void Ipcp::keepalive_tick() {
  const std::string cls = kClsKeepAlive;
  bool changed = false;
  SimTime limit{cfg_.keepalive_interval.ns * cfg_.keepalive_misses};
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    Port& p = ports_[i];
    if (!p.peer_enrolled || !p.carrier) continue;
    if (p.alive && sched().now() - p.last_heard > limit) {
      p.alive = false;
      stats_.inc("keepalive_expired");
      changed = true;
      continue;
    }
    if (p.alive) send_mgmt_wire(static_cast<relay::PortIndex>(i), cls, keepalive_wire());
  }
  if (changed) adjacency_changed();
}

// --------------------------- enrollment ---------------------------

Result<void> Ipcp::enroll_via(relay::PortIndex idx) {
  if (idx >= ports_.size()) return {Err::invalid, "no such port"};
  if (enrolled_) return {Err::already_exists, "already enrolled"};
  departed_ = false;
  enrollment_.join_port_ = idx;
  enrollment_.attempts_ = 0;
  join_attempt(idx);
  return Ok();
}

void Ipcp::join_attempt(relay::PortIndex idx) {
  if (enrolled_) return;
  if (enrollment_.attempts_ >= kMaxJoinAttempts) {
    enrollment_.stats_.inc("join_gave_up");
    return;
  }
  ++enrollment_.attempts_;
  rib::RiepMessage m;
  m.op = rib::RiepOp::start;
  m.obj_name = "/dif/enrollment/" + host_.node_name();
  m.obj_class = kClsJoinReq;
  BufWriter w(32);
  w.put_lpstring(host_.node_name());
  w.put_lpstring(cfg_.auth_policy == "password" ? cfg_.auth_secret : "");
  m.value = std::move(w).take();
  send_mgmt(idx, m);

  enrollment_.join_timer_ = sched().schedule_after(kJoinTimeout, [this, idx] {
    if (!enrolled_) join_attempt(idx);
  });
}

void Ipcp::handle_join_msg(relay::PortIndex idx, const rib::RiepMessage& m) {
  Port& p = ports_[idx];
  const std::string& cls = m.obj_class;
  BufReader r(BytesView{m.value});

  if (cls == kClsJoinReq) {
    if (!enrolled_) return;  // only members admit
    enrollment_.stats_.inc("join_requests_received");
    std::string joiner = r.get_lpstring();
    std::string offered_secret = r.get_lpstring();
    if (!r.ok()) return;
    if (cfg_.auth_policy == "none") {
      admit_joiner(idx, joiner);
    } else if (cfg_.auth_policy == "password") {
      if (offered_secret == cfg_.auth_secret) {
        admit_joiner(idx, joiner);
      } else {
        enrollment_.stats_.inc("joins_rejected");
        rib::RiepMessage rej;
        rej.op = rib::RiepOp::reply;
        rej.obj_name = m.obj_name;
        rej.obj_class = kClsJoinReject;
        rej.value = to_bytes("bad credentials");
        send_mgmt(idx, rej);
      }
    } else {  // psk-challenge
      std::uint64_t nonce = splitmix64(++enrollment_.nonce_counter_ ^
                                       (static_cast<std::uint64_t>(dif_id_) << 32) ^
                                       address_.key());
      p.join_nonce = nonce;
      rib::RiepMessage ch;
      ch.op = rib::RiepOp::reply;
      ch.obj_name = m.obj_name;
      ch.obj_class = kClsJoinChallenge;
      BufWriter w(8);
      w.put_u64(nonce);
      ch.value = std::move(w).take();
      send_mgmt(idx, ch);
    }
    return;
  }

  if (cls == kClsJoinChallenge) {
    // Answer only a challenge we solicited, on the port we are joining
    // through — anything else is a chosen-nonce oracle for our secret.
    if (enrolled_ || !enrollment_.join_port_ || *enrollment_.join_port_ != idx)
      return;
    std::uint64_t nonce = r.get_u64();
    if (!r.ok()) return;
    rib::RiepMessage resp;
    resp.op = rib::RiepOp::reply;
    resp.obj_name = m.obj_name;
    resp.obj_class = kClsJoinResp;
    BufWriter w(32);
    w.put_lpstring(host_.node_name());
    w.put_u64(auth_token(nonce));
    resp.value = std::move(w).take();
    send_mgmt(idx, resp);
    return;
  }

  if (cls == kClsJoinResp) {
    if (!enrolled_ || !p.join_nonce) return;
    std::string joiner = r.get_lpstring();
    std::uint64_t proof = r.get_u64();
    if (!r.ok()) return;
    std::uint64_t expect = auth_token(*p.join_nonce);
    p.join_nonce.reset();
    if (proof == expect) {
      admit_joiner(idx, joiner);
    } else {
      enrollment_.stats_.inc("joins_rejected");
      rib::RiepMessage rej;
      rej.op = rib::RiepOp::reply;
      rej.obj_name = m.obj_name;
      rej.obj_class = kClsJoinReject;
      rej.value = to_bytes("challenge failed");
      send_mgmt(idx, rej);
    }
    return;
  }

  if (cls == kClsJoinAccept) {
    // Accept only on the port our join is actually in progress on; a
    // spoofed accept must not hand us an address and topology.
    if (enrolled_ || !enrollment_.join_port_ || *enrollment_.join_port_ != idx)
      return;
    complete_enrollment(idx, m);
    return;
  }

  if (cls == kClsJoinReject) {
    // Same gating as accept/challenge: a spoofed reject from another port
    // must not cancel or redirect the enrollment in progress.
    if (enrolled_ || !enrollment_.join_port_ || *enrollment_.join_port_ != idx)
      return;
    enrollment_.stats_.inc("join_rejects_received");
    // Re-arming the join timer supersedes the pending timeout retry.
    enrollment_.join_timer_ = sched().schedule_after(kJoinRetryGap, [this, idx] {
      if (!enrolled_) join_attempt(idx);
    });
    return;
  }
}

void Ipcp::admit_joiner(relay::PortIndex idx, const std::string& joiner_name) {
  Port& p = ports_[idx];
  naming::Address assigned = host_.allocate_dif_address(cfg_.name);
  enrollment_.stats_.inc("joins_accepted");
  enrollment_.stats_.inc("members_admitted");
  p.peer = assigned;
  p.peer_enrolled = true;
  p.alive = true;

  rib::RiepMessage acc;
  acc.op = rib::RiepOp::reply;
  acc.obj_name = "/dif/enrollment/" + joiner_name;
  acc.obj_class = kClsJoinAccept;
  // A truncated snapshot is topped up later by floods and dir-sync. A
  // hierarchical DIF has no replicated directory to hand over — the
  // joiner resolves through its anchor like everyone else.
  BufWriter w(256);
  put_addr(w, assigned);
  put_addr(w, address_);
  if (cfg_.dir_hierarchical)
    w.put_u16(0);
  else
    put_dir(w, kSnapshotBudget / 2);
  // LSDB snapshot: the joiner must see the DIF's topology, not just us —
  // link-state floods only carry *changes*.
  put_lsdb(w);
  acc.value = std::move(w).take();
  send_mgmt(idx, acc);
  adjacency_changed();
}

void Ipcp::complete_enrollment(relay::PortIndex idx, const rib::RiepMessage& m) {
  Port& p = ports_[idx];
  BufReader r(BytesView{m.value});
  naming::Address assigned = get_addr(r);
  naming::Address member = get_addr(r);
  std::uint16_t n = r.get_u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    naming::AppName app = get_app(r);
    naming::Address at = get_addr(r);
    if (r.ok()) dir_.add(app, at);
  }
  std::uint16_t nlsu = r.get_u16();
  for (std::uint16_t i = 0; i < nlsu && r.ok(); ++i) {
    naming::Address origin = get_addr(r);
    std::uint64_t seq = r.get_u64();
    std::vector<naming::Address> neighbors = get_neighbors(r);
    if (!r.ok()) break;
    // Seed the replica too, or the first anti-entropy round would
    // re-pull everything the snapshot already carried.
    if (routing_.learn(origin, seq, neighbors) && cfg_.rib_delta_sync)
      (void)rib_.upsert_versioned("/routing/lsu/" + origin.to_string(), kClsLsu,
                                  lsu_value(origin, seq, neighbors), seq);
  }
  if (!r.ok()) return;
  enrollment_.join_timer_.cancel();  // the pending timeout retry
  enrollment_.stats_.inc("joins_completed");
  p.peer = member;
  p.peer_enrolled = true;
  p.alive = true;
  bootstrap_member(assigned);
  // Announce whatever was registered locally before we had an address.
  for (const auto& [app, handler] : fa_.apps_) publish_app(app);
  adjacency_changed();
}

void Ipcp::leave(bool teardown_flows) {
  if (!enrolled_) return;
  fa_.close_all(teardown_flows);
  rib::RiepMessage bye;
  bye.op = rib::RiepOp::stop;
  bye.obj_name = "/dif/members/" + host_.node_name();
  bye.obj_class = kClsBye;
  for (std::size_t i = 0; i < ports_.size(); ++i)
    if (usable(ports_[i])) send_mgmt(static_cast<relay::PortIndex>(i), bye);
  enrolled_ = false;
  departed_ = true;
  keepalive_timer_.cancel();
  sync_timer_.cancel();
  for (auto& [app, pr] : pending_resolve_) {
    (void)app;
    pr.timer.cancel();
  }
  pending_resolve_.clear();
  dir_cache_.clear();
  dir_interest_.clear();
  routing_.reset();
  stats_.inc("departures");
}

// --------------------------- directory ---------------------------

rib::RiepMessage Ipcp::dir_update_msg(const naming::AppName& app, std::uint8_t op) {
  rib::RiepMessage m;
  m.op = op == 1 ? rib::RiepOp::create : rib::RiepOp::remove;
  m.obj_name = "/dif/directory/" + app.to_string();
  m.obj_class = kClsDirUpd;
  BufWriter w(32);
  put_addr(w, address_);
  w.put_u64(++dir_seq_);
  w.put_u8(op);
  put_app(w, app);
  put_addr(w, address_);
  m.value = std::move(w).take();
  return m;
}

void Ipcp::announce_app(const naming::AppName& app) {
  if (cfg_.dir_hierarchical) {
    // Registration state lives only on the resolver chain (region
    // anchor + root); nobody floods, everyone else resolves on demand.
    send_targeted_dir_update(app, 1);
  } else if (cfg_.rib_delta_sync) {
    disseminate_dir_delta(app, 1);
  } else {
    flood(dir_update_msg(app, 1), std::nullopt);
  }
}

void Ipcp::publish_app(const naming::AppName& app) {
  if (!enrolled_ || address_.is_null()) return;
  dir_.add(app, address_);
  announce_app(app);
  // Registration can race adjacency bring-up (the flood reaches only
  // usable ports); re-announce with fresh sequence numbers until the DIF
  // has had time to converge.
  announce_timers_.erase(
      std::remove_if(announce_timers_.begin(), announce_timers_.end(),
                     [](const sim::Timer& t) { return !t.armed(); }),
      announce_timers_.end());
  for (double ms : {20.0, 100.0, 500.0}) {
    announce_timers_.push_back(
        sched().schedule_after(SimTime::from_ms(ms), [this, app] {
          if (enrolled_ &&
              dir_.lookup(app) == std::optional<naming::Address>{address_})
            announce_app(app);
        }));
  }
}

void Ipcp::unpublish_app(const naming::AppName& app) {
  std::optional<naming::Address> was = dir_.lookup(app);
  dir_.remove(app);
  if (cfg_.dir_hierarchical) {
    send_targeted_dir_update(app, 2);
    // Mobility/unregister: every cached copy of the old binding must
    // die. The authorities cascade the invalidation down their interest
    // lists when the remove reaches them; here only local state is left.
    if (was) cascade_dir_inval(app, *was);
  } else if (cfg_.rib_delta_sync) {
    disseminate_dir_delta(app, 2);
  } else {
    flood(dir_update_msg(app, 2), std::nullopt);
  }
}

void Ipcp::send_dir_sync(relay::PortIndex idx) {
  if (!enrolled_ || dir_.size() == 0) return;
  rib::RiepMessage m;
  m.op = rib::RiepOp::write;
  m.obj_name = "/dif/directory";
  m.obj_class = kClsDirSync;
  BufWriter w(256);
  put_dir(w, kSnapshotBudget);
  m.value = std::move(w).take();
  send_mgmt(idx, m);
}

void Ipcp::put_dir(BufWriter& w, std::size_t budget) {
  put_snapshot(w, dir_.entries(), budget, stats_,
               [](BufWriter& b, const naming::AppName& app, naming::Address at) {
                 put_app(b, app);
                 put_addr(b, at);
               });
}

void Ipcp::handle_dir_sync(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  std::uint16_t n = r.get_u16();
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
    naming::AppName app = get_app(r);
    naming::Address at = get_addr(r);
    if (r.ok() && !dir_.lookup(app)) dir_.add(app, at);
  }
}

bool Ipcp::apply_dir_update(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address origin = get_addr(r);
  std::uint64_t seq = r.get_u64();
  std::uint8_t op = r.get_u8();
  naming::AppName app = get_app(r);
  naming::Address at = get_addr(r);
  if (!r.ok() || origin.is_null()) return false;
  if (origin == address_) return false;
  std::uint64_t key = (static_cast<std::uint64_t>(origin.key()) << 24) ^ seq;
  if (!dir_flood_seen_.insert(key).second) {
    stats_.inc("dir_dups_suppressed");
    return false;
  }
  std::optional<naming::Address> old = dir_.lookup(app);
  if (op == 1)
    dir_.add(app, at);
  else
    dir_.remove(app);
  // An authority losing (or rebinding) an entry kills every cached copy
  // of the old binding via its interest list — mobility costs O(who
  // actually resolved the name), not O(members).
  if (cfg_.dir_hierarchical && old && (op != 1 || *old != at))
    cascade_dir_inval(app, *old);
  return true;
}

void Ipcp::handle_dir_update(relay::PortIndex idx, const rib::RiepMessage& m) {
  if (apply_dir_update(m) && !cfg_.dir_hierarchical) flood(m, idx);
}

// ---------------- hierarchical directory resolution ----------------
//
// Registrations go only to the resolver chain (region anchor + DIF
// root); everyone else resolves a miss by asking up, caching the answer
// with a TTL. Control cost per registration is O(chain length), not
// O(members) — the tentpole's naming layer.

naming::Address Ipcp::resolver_parent() const {
  naming::Address anchor = dir_anchor();
  if (address_ != anchor) return anchor;
  if (!cfg_.dir_root.is_null() && address_ != cfg_.dir_root)
    return cfg_.dir_root;
  return naming::Address{};  // I am the top of the chain
}

std::optional<naming::Address> Ipcp::dir_cache_lookup(const naming::AppName& app) {
  auto at = dir_cache_.lookup(app, sched().now());
  if (at)
    stats_.inc("dir_cache_hits");
  else
    stats_.inc("dir_cache_misses");
  return at;
}

void Ipcp::resolve_name(const naming::AppName& app, ResolveCb cb) {
  if (auto at = dir_.lookup(app)) {
    if (cb) cb(at);
    return;
  }
  if (!cfg_.dir_hierarchical || !enrolled_) {
    if (cb) cb(std::nullopt);
    return;
  }
  if (auto at = dir_cache_lookup(app)) {
    if (cb) cb(at);
    return;
  }
  if (resolver_parent().is_null()) {
    // Authoritative miss: nobody above me to ask.
    if (cb) cb(std::nullopt);
    return;
  }
  start_dir_query(app, std::move(cb));
}

std::optional<naming::Address> Ipcp::dir_lookup_for_alloc(
    const naming::AppName& app) {
  if (auto at = dir_.lookup(app)) return at;
  if (!cfg_.dir_hierarchical || !enrolled_) return std::nullopt;
  // The allocator polls; while a query is in flight, just miss quietly
  // (one counted cache miss per query cycle, not per poll).
  if (pending_resolve_.count(app) != 0) return std::nullopt;
  if (auto at = dir_cache_lookup(app)) return at;
  if (resolver_parent().is_null()) return std::nullopt;
  start_dir_query(app, ResolveCb{});  // cache-warming query
  return std::nullopt;
}

void Ipcp::start_dir_query(const naming::AppName& app, ResolveCb cb) {
  auto it = pending_resolve_.find(app);
  if (it != pending_resolve_.end()) {
    it->second.cbs.push_back(std::move(cb));
    return;  // one query in flight per name
  }
  PendingResolve& pr = pending_resolve_[app];
  pr.cbs.push_back(std::move(cb));
  pr.attempts = 0;
  send_dir_query(app);
}

void Ipcp::send_dir_query(const naming::AppName& app) {
  auto it = pending_resolve_.find(app);
  if (it == pending_resolve_.end()) return;
  PendingResolve& pr = it->second;
  if (pr.attempts >= kMaxDirQueryAttempts) {
    finish_dir_query(app, std::nullopt);
    return;
  }
  ++pr.attempts;
  stats_.inc("dir_queries_sent");
  rib::RiepMessage m;
  m.op = rib::RiepOp::read;
  m.obj_name = "/dif/directory/" + app.to_string();
  m.obj_class = kClsDirRead;
  BufWriter w(8 + app.to_string().size());
  put_addr(w, address_);
  put_app(w, app);
  m.value = std::move(w).take();
  send_routed_mgmt(resolver_parent(), m);
  pr.timer =
      sched().schedule_after(kDirQueryRetry, [this, app] { send_dir_query(app); });
}

void Ipcp::finish_dir_query(const naming::AppName& app,
                            std::optional<naming::Address> result) {
  auto it = pending_resolve_.find(app);
  if (it == pending_resolve_.end()) return;
  it->second.timer.cancel();
  std::vector<ResolveCb> cbs = std::move(it->second.cbs);
  pending_resolve_.erase(it);
  for (auto& cb : cbs)
    if (cb) cb(result);
}

void Ipcp::send_targeted_dir_update(const naming::AppName& app, std::uint8_t op) {
  rib::RiepMessage m = dir_update_msg(app, op);
  stats_.inc("dir_targeted_updates");
  naming::Address anchor = dir_anchor();
  if (anchor != address_ && !anchor.is_null()) send_routed_mgmt(anchor, m);
  if (!cfg_.dir_root.is_null() && cfg_.dir_root != address_ &&
      cfg_.dir_root != anchor)
    send_routed_mgmt(cfg_.dir_root, m);
}

void Ipcp::send_dir_inval(naming::Address to, const naming::AppName& app,
                          naming::Address at) {
  rib::RiepMessage m;
  m.op = rib::RiepOp::remove;
  m.obj_name = "/dif/directory/" + app.to_string();
  m.obj_class = kClsDirInval;
  BufWriter w(16 + app.to_string().size());
  put_addr(w, address_);
  w.put_u64(++dir_seq_);
  put_app(w, app);
  put_addr(w, at);
  m.value = std::move(w).take();
  stats_.inc("dir_invals_originated");
  send_routed_mgmt(to, m);
}

void Ipcp::cascade_dir_inval(const naming::AppName& app, naming::Address at) {
  if (dir_cache_.invalidate_if_at(app, at))
    stats_.inc("dir_cache_invalidations");
  auto it = dir_interest_.find(app);
  if (it == dir_interest_.end()) return;
  // Interest older than the cache TTL cannot correspond to a live
  // cached entry any more — let it age out silently.
  SimTime now = sched().now();
  for (const auto& [who, when] : it->second)
    if (now - when < cfg_.dir_cache_ttl && who != address_)
      send_dir_inval(who, app, at);
  dir_interest_.erase(it);
}

void Ipcp::handle_dir_inval(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address origin = get_addr(r);
  std::uint64_t seq = r.get_u64();
  naming::AppName app = get_app(r);
  naming::Address at = get_addr(r);
  if (!r.ok() || origin.is_null()) return;
  if (origin == address_) return;
  // Invalidations share the origin's DirUpd sequence space, so one seen
  // set covers both kinds.
  std::uint64_t key = (static_cast<std::uint64_t>(origin.key()) << 24) ^ seq;
  if (!dir_flood_seen_.insert(key).second) {
    stats_.inc("dir_dups_suppressed");
    return;
  }
  // Drop a stale authoritative binding too — unless a newer
  // registration already replaced it.
  if (dir_.lookup(app) == std::optional<naming::Address>{at}) dir_.remove(app);
  // Kill the local cached copy and pass the invalidation further down
  // the query tree (whoever resolved through this node).
  cascade_dir_inval(app, at);
}

void Ipcp::handle_dir_read(const efcp::Pci& pci, const rib::RiepMessage& m) {
  (void)pci;
  BufReader r(BytesView{m.value});
  naming::Address requester = get_addr(r);
  naming::AppName app = get_app(r);
  if (!r.ok() || requester.is_null() || requester == address_) return;
  stats_.inc("dir_queries_served");
  // Remember who asked: a later mobility event invalidates exactly these
  // caches instead of flooding. Bounded per name; oldest interest falls
  // off first (its cache entry expires by TTL anyway).
  auto& interest = dir_interest_[app];
  interest[requester] = sched().now();
  if (interest.size() > kMaxDirInterest) {
    auto oldest = interest.begin();
    for (auto iit = interest.begin(); iit != interest.end(); ++iit)
      if (iit->second < oldest->second) oldest = iit;
    interest.erase(oldest);
  }
  // Resolve locally or escalate up my own chain; either way the reply
  // goes back to the immediate requester, which caches it — so an
  // answer warms every hop on its way down.
  resolve_name(app, [this, requester, app](std::optional<naming::Address> at) {
    rib::RiepMessage rep;
    rep.op = rib::RiepOp::reply;
    rep.obj_name = "/dif/directory/" + app.to_string();
    rep.obj_class = kClsDirReadReply;
    BufWriter w(16 + app.to_string().size());
    put_app(w, app);
    w.put_u8(at ? 1 : 0);
    put_addr(w, at ? *at : naming::Address{});
    rep.value = std::move(w).take();
    send_routed_mgmt(requester, rep);
  });
}

void Ipcp::handle_dir_read_reply(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::AppName app = get_app(r);
  std::uint8_t found = r.get_u8();
  naming::Address at = get_addr(r);
  if (!r.ok()) return;
  std::optional<naming::Address> res;
  if (found != 0 && !at.is_null()) {
    res = at;
    dir_cache_.insert(app, at, sched().now());
  }
  finish_dir_query(app, res);
}

// ----------------------- versioned delta sync -----------------------
//
// cfg.rib_delta_sync: replicated mutations travel as sequence-numbered
// per-origin deltas (gap pulls on a hole, scoped snapshot when the hole
// fell off the bounded log), and periodic anti-entropy digest rounds
// sweep the namespace in sorted windows.

rib::RiepMessage Ipcp::sync_msg(const char* cls, Bytes value) {
  rib::RiepMessage m;
  m.op = rib::RiepOp::sync;
  m.obj_name = "/rib/sync";
  m.obj_class = cls;
  m.value = std::move(value);
  return m;
}

void Ipcp::send_sync_msg(relay::PortIndex idx, const char* cls, Bytes value) {
  send_mgmt(idx, sync_msg(cls, std::move(value)));
}

void Ipcp::disseminate_delta(const std::string& name, const std::string& cls,
                             Bytes value, std::uint64_t version) {
  rib::DeltaEntry e;
  e.seq = ++sync_seq_;
  e.name = name;
  e.obj_class = cls;
  e.version = version;
  e.value = std::move(value);
  rib::OriginLog& own = sync_.log(address_);
  rib::Delta d;
  d.origin = address_;
  // Own entries that no port carried (originated while every wire was
  // down) ride ahead of this one, so no member ever sees a hole in this
  // origin's sequence, and nobody pulls what nobody but us holds.
  if (sync_sent_ + 1 < e.seq) d.entries = own.collect(sync_sent_ + 1, e.seq - 1);
  d.entries.push_back(std::move(e));
  rib::RiepMessage m = sync_msg(kClsRibDelta, d.encode());
  own.record(std::move(d.entries.back()));
  stats_.inc("deltas_originated");
  if (flood(m, std::nullopt) > 0) sync_sent_ = sync_seq_;
}

void Ipcp::disseminate_dir_delta(const naming::AppName& app, std::uint8_t op) {
  const std::string name = "/dif/directory/" + app.to_string();
  BufWriter w(8 + app.to_string().size());
  w.put_u8(op);  // 1 = bind to me, 2 = tombstone
  put_app(w, app);
  put_addr(w, address_);
  Bytes value = std::move(w).take();
  // Lamport-ish: bump past whatever version this replica has seen, so a
  // re-registration after mobility beats the old origin's entries.
  std::uint64_t ver = rib_.version_of(name) + 1;
  (void)rib_.upsert_versioned(name, kClsDirEntry, value, ver);
  disseminate_delta(name, kClsDirEntry, std::move(value), ver);
}

bool Ipcp::apply_replicated(const rib::DeltaEntry& e) {
  if (!rib::replicated_scope(e.name)) return false;
  if (!rib_.upsert_versioned(e.name, e.obj_class, e.value, e.version))
    return false;  // replica already at this version or newer
  if (e.obj_class == kClsLsu) {
    BufReader r(BytesView{e.value});
    naming::Address origin = get_addr(r);
    std::uint64_t seq = r.get_u64();
    std::vector<naming::Address> neighbors = get_neighbors(r);
    if (r.ok() && !origin.is_null() && origin != address_ &&
        routing_.learn(origin, seq, std::move(neighbors)))
      schedule_spf();
  } else if (e.obj_class == kClsDirEntry) {
    BufReader r(BytesView{e.value});
    std::uint8_t op = r.get_u8();
    naming::AppName app = get_app(r);
    naming::Address at = get_addr(r);
    if (r.ok()) {
      if (op == 1 && !at.is_null())
        dir_.add(app, at);
      else if (op == 2)
        dir_.remove(app);  // version gate already ordered us after any add
    }
  }
  return true;
}

void Ipcp::handle_rib_delta(relay::PortIndex idx, const rib::RiepMessage& m) {
  auto decoded = rib::Delta::decode(BytesView{m.value});
  if (!decoded.ok()) return;
  rib::Delta& d = decoded.value();
  ++lazy_cell(c_deltas_received_, "deltas_received");
  const bool own = d.origin == address_;
  rib::OriginLog* log = d.origin.is_null() || own ? nullptr : &sync_.log(d.origin);
  // The common case — every entry a logged seq not seen before, in
  // ascending order so none repeats — re-floods the received encoding
  // unchanged (encode(decode(x)) == x) and moves each entry straight into
  // the log. Otherwise only the fresh entries re-flood, re-encoded.
  bool all_fresh = log != nullptr;
  for (std::size_t i = 0; all_fresh && i < d.entries.size(); ++i) {
    std::uint64_t seq = d.entries[i].seq;
    all_fresh = seq != 0 && !log->has(seq) &&
                (i == 0 || seq > d.entries[i - 1].seq);
  }
  std::uint64_t gap_from = 0, gap_to = 0;
  rib::Delta fwd;  // fresh logged entries re-flood to the other ports
  fwd.origin = d.origin;
  for (rib::DeltaEntry& e : d.entries) {
    if (e.seq == 0 || log == nullptr) {
      // Repair entry (snapshot / digest push / pull answer): apply
      // version-guarded, never log, never re-flood.
      (void)apply_replicated(e);
      continue;
    }
    if (log->has(e.seq)) {
      ++lazy_cell(c_deltas_dup_suppressed_, "deltas_dup_suppressed");
      continue;
    }
    // Note the hole *before* recording raises high(): pull exactly the
    // missed range from whoever showed it to us.
    if (log->high() != 0 && e.seq > log->high() + 1 && gap_from == 0) {
      gap_from = log->high() + 1;
      gap_to = e.seq - 1;
    }
    (void)apply_replicated(e);
    if (!all_fresh) fwd.entries.push_back(e);
    log->record(std::move(e));
  }
  if (all_fresh && !d.entries.empty())
    flood(sync_msg(kClsRibDelta, m.value), idx);
  else if (!fwd.entries.empty())
    flood(sync_msg(kClsRibDelta, fwd.encode()), idx);
  if (gap_from != 0) {
    stats_.inc("delta_gap_pulls");
    rib::PullRequest pr;
    pr.kind = rib::PullRequest::Kind::seq_range;
    pr.origin = d.origin;
    pr.from = gap_from;
    pr.to = gap_to;
    send_sync_msg(idx, kClsRibPull, pr.encode());
  }
}

void Ipcp::push_objects(relay::PortIndex idx, const std::vector<std::string>& names) {
  rib::Delta d;  // repair delta: origin null, every entry seq 0
  for (const std::string& n : names) {
    if (!rib::replicated_scope(n)) continue;
    const rib::Rib::Object* o = rib_.find(n);
    if (o == nullptr) continue;
    d.entries.push_back(rib::DeltaEntry{0, n, o->obj_class, o->version, o->value});
  }
  if (d.entries.empty()) return;
  stats_.inc("objects_pushed", d.entries.size());
  send_sync_msg(idx, kClsRibDelta, d.encode());
}

void Ipcp::send_port_digest(relay::PortIndex idx) {
  if (!enrolled_) return;
  rib::Digest dg = rib::build_digest(rib_, "", cfg_.rib_digest_budget);
  send_sync_msg(idx, kClsRibDigest, dg.encode());
}

void Ipcp::handle_rib_finger(relay::PortIndex idx, const rib::RiepMessage& m) {
  auto decoded = rib::Fingerprint::decode(BytesView{m.value});
  if (!decoded.ok()) return;
  // Rebuild the peer's window from our own rib: a converged pair hashes
  // equal and the round ends here for O(1) bytes. On mismatch, answer
  // with our window — the peer diffs it and pushes/pulls the repair.
  rib::Digest mine =
      rib::build_digest(rib_, decoded.value().after, cfg_.rib_digest_budget);
  if (rib::digest_fingerprint(mine) == decoded.value().hash) {
    stats_.inc("digest_finger_hits");
    return;
  }
  stats_.inc("digest_finger_misses");
  send_sync_msg(idx, kClsRibDigest, mine.encode());
}

void Ipcp::handle_rib_digest(relay::PortIndex idx, const rib::RiepMessage& m) {
  auto decoded = rib::Digest::decode(BytesView{m.value});
  if (!decoded.ok()) return;
  rib::DigestDiff diff = rib::diff_digest(rib_, decoded.value());
  if (!diff.push.empty()) push_objects(idx, diff.push);
  if (!diff.want.empty()) {
    rib::PullRequest pr;
    pr.kind = rib::PullRequest::Kind::names;
    pr.names = std::move(diff.want);
    stats_.inc("digest_pulls");
    send_sync_msg(idx, kClsRibPull, pr.encode());
  }
}

void Ipcp::handle_rib_pull(relay::PortIndex idx, const rib::RiepMessage& m) {
  auto decoded = rib::PullRequest::decode(BytesView{m.value});
  if (!decoded.ok()) return;
  rib::PullRequest& pr = decoded.value();
  if (pr.kind == rib::PullRequest::Kind::names) {
    push_objects(idx, pr.names);
    return;
  }
  // My own dissemination log lives in sync_ too, so one lookup covers
  // pulls for my deltas and relayed ones alike.
  rib::RangeAnswer ans = rib::answer_range_pull(sync_.find_log(pr.origin), pr.from, pr.to);
  if (ans.snapshot) {
    stats_.inc("snapshot_fallbacks");
    rib::Delta snap = rib::build_snapshot(rib_, kSyncSnapshotEntries);
    send_sync_msg(idx, kClsRibDelta, snap.encode());
  } else if (!ans.entries.empty()) {
    rib::Delta d;
    d.origin = pr.origin;
    d.entries = std::move(ans.entries);
    // Served from the log these keep their seqs, but as a direct answer
    // (not a flood) the peer logs them without re-flooding loops: the
    // normal delta path handles that.
    send_sync_msg(idx, kClsRibDelta, d.encode());
  }
}

void Ipcp::anti_entropy_round() {
  if (!enrolled_ || departed_) return;  // stops the reschedule chain
  auto nbrs = live_neighbors();
  if (!nbrs.empty()) {
    // One neighbor per round (deterministic round-robin), one sorted
    // window of the namespace per round: steady-state cost is a few
    // dozen (name, version) pairs, independent of DIF size.
    auto it = nbrs.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(sync_rr_++ % nbrs.size()));
    relay::PortIndex idx = it->second.front();
    rib::Digest dg = rib::build_digest(rib_, sync_.cursor, cfg_.rib_digest_budget);
    sync_.cursor = rib::next_cursor(dg);
    stats_.inc("digest_rounds");
    rib::Fingerprint fp;
    fp.after = dg.after;
    fp.hash = rib::digest_fingerprint(dg);
    send_sync_msg(idx, kClsRibFinger, fp.encode());
  }
  sync_timer_ = sched().schedule_after(cfg_.rib_sync_interval,
                                       [this] { anti_entropy_round(); });
}

void Ipcp::start_sync_timer() {
  if (sync_timer_.armed()) return;
  // Deterministic per-member phase stagger so a whole region's members
  // don't digest in the same tick.
  std::int64_t step = cfg_.rib_sync_interval.ns;
  std::int64_t phase =
      static_cast<std::int64_t>(splitmix64(address_.key()) % 16) * (step / 16);
  sync_timer_ = sched().schedule_after(SimTime{step + phase},
                                       [this] { anti_entropy_round(); });
}

// ============================== Rmt ==============================

void Rmt::send(efcp::Pdu&& pdu) {
  ++*c_pdus_out_;
  if (pdu.pci.dest == self_.address_ && !pdu.pci.dest.is_null()) {
    self_.deliver_local(std::move(pdu));
    return;
  }
  auto out = fib_.lookup(pdu.pci.dest,
                         [this](relay::PortIndex i) { return self_.port_up(i); });
  if (!out) {
    stats_.inc("drop_no_route");
    return;
  }
  egress(*out, std::move(pdu));
}

Result<void> Rmt::egress_via(relay::PortIndex port, efcp::Pdu&& pdu) {
  if (port >= self_.ports_.size()) return {Err::invalid, "no such port"};
  egress(port, std::move(pdu));
  return Ok();
}

bool Rmt::would_accept(naming::Address dest, efcp::QosId qos) const {
  auto out = fib_.lookup(
      dest, [this](relay::PortIndex i) { return self_.port_up(i); });
  // No route: the write will be dropped (and counted) downstream, not
  // blocked — blocking on an unroutable destination would never wake.
  if (!out) return true;
  return !self_.ports_[*out].queue.full(class_priority(qos));
}

std::uint8_t Rmt::class_priority(efcp::QosId q) const {
  for (const auto& c : self_.cfg_.cubes)
    if (c.id == q) return c.priority;
  return q;
}

bool Rmt::egress(relay::PortIndex port, efcp::Pdu&& pdu) {
  Ipcp::Port& p = self_.ports_[port];
  std::uint8_t prio = class_priority(pdu.pci.qos_id);
  // Congestion is detected where the resource lives: a class queue past
  // its marking threshold stamps the ECN bit on the data PDUs it
  // *admits* (a tail-dropped PDU is neither stamped nor counted), and
  // the DIF's own EFCP senders back off (scoped, not end-to-end). The
  // mark must go on before the encode below freezes the PCI.
  // A full class queue tail-drops before the encode is paid (full
  // implies non-empty, so the direct-tx fast path below is unreachable
  // anyway); push() accounts the drop per class (EgressQueues::drops).
  if (p.queue.full(prio)) {
    p.queue.note_drop(prio);
    stats_.inc("rmt_drops");
    return false;
  }
  if (pdu.pci.type == efcp::PduType::data && p.queue.should_mark(prio)) {
    pdu.pci.flags |= efcp::kFlagEcn;
    stats_.inc("ecn_marked");
  }
  // Encode exactly once: the PCI goes into the payload's headroom in
  // place; queueing and drain retries reuse the same frame.
  Packet frame = std::move(pdu).encode_packet();
  if (p.queue.empty()) {
    if (p.tx(frame)) return true;
  }
  if (!p.queue.push(prio, frame)) {
    stats_.inc("rmt_drops");
    return false;
  }
  if (std::uint64_t pk = p.queue.peak(); pk > *c_rmt_queue_peak_)
    *c_rmt_queue_peak_ = pk;
  schedule_drain(port);
  return true;
}

void Rmt::schedule_drain(relay::PortIndex port) {
  Ipcp::Port& p = self_.ports_[port];
  if (p.drain_timer.armed()) return;
  p.drain_timer =
      self_.sched().schedule_after(kDrainRetry, [this, port] { drain(port); });
}

void Rmt::drain(relay::PortIndex port) {
  Ipcp::Port& p = self_.ports_[port];
  while (!p.queue.empty()) {
    if (!p.tx(p.queue.front().frame)) break;
    p.queue.pop();
  }
  if (!p.queue.empty()) schedule_drain(port);
}

// ========================= FlowAllocator =========================

Result<void> FlowAllocator::register_app(const naming::AppName& app,
                                         flow::AcceptFn accept) {
  auto [it, inserted] = apps_.emplace(app, std::move(accept));
  if (!inserted) return {Err::already_exists, app.to_string()};
  stats_.inc("apps_registered");
  self_.publish_app(app);
  return Ok();
}

Result<void> FlowAllocator::unregister_app(const naming::AppName& app) {
  if (apps_.erase(app) == 0) return {Err::not_found, app.to_string()};
  stats_.inc("apps_unregistered");
  self_.unpublish_app(app);
  return Ok();
}

bool FlowAllocator::can_resolve(const naming::AppName& app) const {
  // A hierarchical DIF can resolve anything registered *somewhere* in it
  // — the answer just isn't local yet. Claim yes and let the allocation
  // path query up; a true miss fails at the allocation deadline.
  if (self_.cfg_.dir_hierarchical && self_.enrolled_) return true;
  return self_.dir_.lookup(app).has_value();
}

const flow::QosCube* FlowAllocator::find_cube(const flow::QosSpec& spec) const {
  for (const auto& c : self_.cfg_.cubes)
    if (!spec.cube_hint.empty() ? c.name == spec.cube_hint
                                : c.reliable == spec.reliable)
      return &c;
  return nullptr;
}

bool FlowAllocator::can_satisfy(const flow::QosSpec& spec) const {
  return find_cube(spec) != nullptr;
}

FlowAllocator::~FlowAllocator() {
  // Detach surviving app handles: their write/deallocate ops capture
  // `this`, which is about to die. finish_close normally does this per
  // flow; teardown does it wholesale.
  for (auto& rec : flows_) {
    if (!rec || !rec->shared) continue;
    rec->shared->do_write = nullptr;
    rec->shared->do_deallocate = nullptr;
  }
}

void FlowAllocator::allocate(const naming::AppName& local,
                             const naming::AppName& remote,
                             const flow::QosSpec& spec,
                             flow::AllocateCallback cb) {
  // Resolve the QoS cube first: asking for a class the DIF does not offer
  // is an immediate, local, *typed* failure — a cube_hint naming a class
  // this DIF lacks must not silently fall back to flag matching.
  const flow::QosCube* cube = find_cube(spec);
  if (cube == nullptr) {
    if (!spec.cube_hint.empty()) {
      stats_.inc("alloc_no_such_cube");
      cb({Err::no_such_cube, "DIF " + self_.cfg_.name.str() +
                                 " offers no QoS cube named '" +
                                 spec.cube_hint + "'"});
    } else {
      cb({Err::not_found,
          "no matching QoS cube in DIF " + self_.cfg_.name.str()});
    }
    return;
  }
  std::uint32_t invoke = next_invoke_++;
  Pending pend;
  pend.local = local;
  pend.remote = remote;
  pend.spec = spec;
  pend.cb = std::move(cb);
  pend.cube = *cube;
  pend.local_cep = next_cep_++;
  pend.deadline = self_.sched().now() + kAllocDeadline;
  pending_.emplace(invoke, std::move(pend));
  stats_.inc("alloc_requests");
  try_pending(invoke);
}

void FlowAllocator::try_pending(std::uint32_t invoke_id) {
  auto it = pending_.find(invoke_id);
  if (it == pending_.end()) return;
  Pending& pend = it->second;
  // Sending before enrollment completes would stamp the request with a
  // stale (or null) source address; wait like a directory miss.
  std::optional<naming::Address> addr;
  if (self_.enrolled_ && !self_.address_.is_null())
    addr = self_.dir_lookup_for_alloc(pend.remote);
  if (!addr) {
    if (self_.sched().now() >= pend.deadline) {
      finish_pending(invoke_id,
                     {Err::not_found, "no directory entry for " +
                                          pend.remote.to_string() + " in " +
                                          self_.cfg_.name.str()});
      return;
    }
    pend.timer = self_.sched().schedule_after(
        kAllocRetry, [this, invoke_id] { try_pending(invoke_id); });
    return;
  }

  rib::RiepMessage m;
  m.op = rib::RiepOp::create;
  m.invoke_id = invoke_id;
  m.obj_name = "/dif/flows/" + pend.remote.to_string();
  m.obj_class = "FlowReq";
  BufWriter w(64);
  put_addr(w, self_.address_);
  w.put_u16(pend.local_cep);
  w.put_u8(pend.cube.id);
  w.put_lpstring(pend.cube.name);
  put_app(w, pend.local);
  put_app(w, pend.remote);
  m.value = std::move(w).take();
  self_.send_routed_mgmt(*addr, m);
  pend.sent = true;

  // Re-try until answered: the request may race routing convergence or
  // the destination may have moved. The timer dies with the Pending, so
  // an answered request cannot fire a stale resend.
  pend.timer = self_.sched().schedule_after(kAllocResend, [this, invoke_id] {
    auto pit = pending_.find(invoke_id);
    if (pit == pending_.end()) return;
    if (self_.sched().now() >= pit->second.deadline) {
      finish_pending(invoke_id, {Err::timeout, "flow allocation timed out"});
      return;
    }
    try_pending(invoke_id);
  });
}

void FlowAllocator::finish_pending(std::uint32_t invoke_id,
                                   Result<flow::FlowInfo> r) {
  auto it = pending_.find(invoke_id);
  if (it == pending_.end()) return;
  flow::AllocateCallback cb = std::move(it->second.cb);
  pending_.erase(it);
  if (!r.ok()) stats_.inc("alloc_failed");
  cb(std::move(r));
}

void FlowAllocator::create_connection(FlowRec& rec) {
  // The policy name selects the mechanism profile (timers, windows) and
  // the cube's dtcp_policy the transmission-control discipline; the
  // cube's declared flags are authoritative for the service semantics —
  // flow matching reads the flags, so they must win over the string.
  // A misconfigured cube (unknown name) is counted and falls back to
  // defaults: the flow still works, but the operator can see the typo.
  efcp::EfcpPolicies pol;
  auto named = efcp::EfcpPolicies::from_policy_name(rec.cube.efcp_policy);
  if (named.ok()) {
    pol = named.value();
  } else {
    stats_.inc("efcp_policy_unknown");
  }
  if (!rec.cube.dtcp_policy.empty()) {
    if (!pol.set_tx_policy(rec.cube.dtcp_policy).ok())
      stats_.inc("efcp_policy_unknown");
  }
  if (rec.cube.rate_pps > 0.0) pol.rate_pps = rec.cube.rate_pps;
  if (rec.cube.rate_burst_pdus > 0.0) pol.bucket_pdus = rec.cube.rate_burst_pdus;
  pol.reliable = rec.cube.reliable;
  pol.in_order = rec.cube.in_order;
  efcp::ConnectionId id;
  id.src = self_.address_;
  id.dst = rec.peer;
  id.src_cep = rec.local_cep;
  id.dst_cep = rec.remote_cep;
  id.qos = rec.cube.id;
  flow::PortId port = rec.port;
  rec.conn = std::make_unique<efcp::Connection>(
      self_.sched(), pol, id,
      [this](efcp::Pdu&& pdu) { self_.rmt_.send(std::move(pdu)); },
      [this, port](Packet&& sdu) {
        FlowRec* r = by_port(port);
        if (r == nullptr) return;
        deliver_sdu(*r, std::move(sdu));
      });
}

void FlowAllocator::deliver_sdu(FlowRec& rec, Packet&& sdu) {
  if (rec.sink) {
    // Internal consumer (an overlay port riding this flow): hand the
    // Packet through — the recursion stays zero-copy.
    rec.sink(std::move(sdu));
    return;
  }
  if (rec.shared) {
    flow::detail::FlowShared& sh = *rec.shared;
    if (sh.rx.size() >= sh.rx_cap) {
      // The app is not reading: bounded queue, counted drop. The loss is
      // charged to the reader here, never hidden in unbounded memory.
      stats_.inc("app_rx_dropped");
      return;
    }
    sh.push_rx(std::move(sdu).take_bytes());
    return;
  }
  stats_.inc("sdus_unconsumed");
}

void FlowAllocator::attach_handle(
    flow::PortId port, std::shared_ptr<flow::detail::FlowShared> shared) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr) {
    shared->finish_close(Error{Err::flow_closed, "flow vanished"});
    return;
  }
  rec->shared = shared;
  shared->rx_cap = self_.cfg_.app_rx_queue_sdus;
  shared->node_stats = self_.host_.node_stats();
  // ~FlowAllocator detaches these ops from every live handle, so a Flow
  // outliving its IPCP fails typed instead of dereferencing a dead this.
  shared->do_write = [this, port](BytesView sdu) -> Result<void> {
    return write(port, sdu);
  };
  shared->do_deallocate = [this, port] { (void)deallocate(port); };
  if (rec->conn)
    rec->conn->set_on_writable([this, port] { notify_writable(port); });
}

void FlowAllocator::notify_writable(flow::PortId port) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->shared || rec->closing) return;
  if (rec->shared->state != flow::FlowState::open) return;
  rec->shared->fire_writable();
}

/// Unreliable flows blocked on a full RMT class queue have no ack clock
/// to wake them; poll the queue until it has room, then fire on_writable.
void FlowAllocator::arm_rmt_poll(FlowRec& rec) {
  if (rec.rmt_poll_timer.armed()) return;
  flow::PortId port = rec.port;
  // The timer dies with the record, so a recycled port-id can never be
  // polled on a stale flow's behalf.
  rec.rmt_poll_timer = self_.sched().schedule_after(kRmtPollGap, [this, port] {
    FlowRec* r = by_port(port);
    if (r == nullptr) return;
    if (!r->shared || !r->shared->want_writable || r->closing) return;
    if (self_.rmt_.would_accept(r->peer, r->cube.id))
      notify_writable(port);
    else
      arm_rmt_poll(*r);
  });
}

void FlowAllocator::on_flow_req(const efcp::Pci& /*pci*/, const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address src_addr = get_addr(r);
  efcp::CepId src_cep = r.get_u16();
  (void)r.get_u8();
  std::string cube_name = r.get_lpstring();
  naming::AppName src_app = get_app(r);
  naming::AppName dst_app = get_app(r);
  if (!r.ok()) return;

  auto reply = [&](bool ok, efcp::CepId cep, const std::string& err) {
    rib::RiepMessage resp;
    resp.op = rib::RiepOp::reply;
    resp.invoke_id = m.invoke_id;
    resp.obj_name = m.obj_name;
    resp.obj_class = "FlowResp";
    BufWriter w(32);
    w.put_u8(ok ? 1 : 0);
    w.put_u16(cep);
    w.put_lpstring(err);
    resp.value = std::move(w).take();
    self_.send_routed_mgmt(src_addr, resp);
  };

  // Idempotent re-request (the response may have been lost).
  std::uint64_t key = (static_cast<std::uint64_t>(src_addr.key()) << 16) | src_cep;
  auto dup = remote_flow_index_.find(key);
  if (dup != remote_flow_index_.end()) {
    FlowRec* rec = by_port(dup->second);
    if (rec != nullptr) {
      reply(true, rec->local_cep, {});
      return;
    }
  }

  auto ait = apps_.find(dst_app);
  if (ait == apps_.end()) {
    stats_.inc("flow_reqs_refused");
    reply(false, 0, "no such application: " + dst_app.to_string());
    return;
  }
  const flow::QosCube* cube = nullptr;
  for (const auto& c : self_.cfg_.cubes)
    if (c.name == cube_name) cube = &c;
  if (cube == nullptr) {
    stats_.inc("alloc_no_such_cube");
    reply(false, 0, "no such QoS cube: " + cube_name);
    return;
  }

  auto rec = std::make_unique<FlowRec>();
  rec->port = self_.host_.allocate_port_id();
  rec->local = dst_app;
  rec->remote = src_app;
  rec->peer = src_addr;
  rec->cube = *cube;
  rec->local_cep = next_cep_++;
  rec->remote_cep = src_cep;
  create_connection(*rec);
  flow::PortId port = rec->port;
  set_cep(rec->local_cep, port);
  remote_flow_index_[key] = port;
  stats_.inc("flows_accepted");

  flow::FlowInfo info;
  info.port = port;
  info.cube = *cube;
  info.local = dst_app;
  info.remote = src_app;
  info.dif = self_.cfg_.name;
  efcp::CepId local_cep = rec->local_cep;
  insert_rec(std::move(rec));
  // Reply BEFORE handing the app its handle: an accept handler that
  // writes immediately (server-push) would otherwise race its own SDUs
  // ahead of the FlowResp through the FIFO RMT queue, and the initiator
  // — which learns the CEP only from the response — would drop them.
  reply(true, local_cep, {});
  // Hand the accepting application a first-class handle. The record owns
  // the shared state, so the app may drop the handle and live off hooks.
  auto shared = std::make_shared<flow::detail::FlowShared>();
  shared->open_with(info);
  attach_handle(port, shared);
  if (ait->second) ait->second(flow::Flow(shared));
}

void FlowAllocator::on_flow_resp(const efcp::Pci& pci, const rib::RiepMessage& m) {
  auto it = pending_.find(m.invoke_id);
  if (it == pending_.end()) return;
  Pending& pend = it->second;
  BufReader r(BytesView{m.value});
  bool ok = r.get_u8() != 0;
  efcp::CepId cep = r.get_u16();
  std::string err = r.get_lpstring();
  if (!r.ok()) return;
  if (!ok) {
    finish_pending(m.invoke_id, {Err::refused, err});
    return;
  }
  // The responder's address comes from the response itself — the
  // directory entry may have been withdrawn while the request was in
  // flight, and a null peer would black-hole every write.
  auto rec = std::make_unique<FlowRec>();
  rec->port = self_.host_.allocate_port_id();
  rec->local = pend.local;
  rec->remote = pend.remote;
  rec->peer = pci.src;
  rec->cube = pend.cube;
  rec->local_cep = pend.local_cep;
  rec->remote_cep = cep;
  create_connection(*rec);

  flow::FlowInfo info;
  info.port = rec->port;
  info.cube = rec->cube;
  info.local = pend.local;
  info.remote = pend.remote;
  info.dif = self_.cfg_.name;
  set_cep(rec->local_cep, rec->port);
  insert_rec(std::move(rec));
  stats_.inc("flows_allocated");
  finish_pending(m.invoke_id, info);
}

// ---- deallocation: the release exchange ----
//
// deallocate() → FlowRelease → peer retires its port, fires its app's
// on_closed, replies FlowReleaseAck → initiator retires its port. The
// release retries until acked; an unreachable peer costs bounded retries
// before the initiator retires unilaterally. Both directions are
// idempotent: a duplicate release for an already-retired CEP is acked
// again (the first ack may have been lost) but closes nothing twice.

/// The one encoder of the release wire format, shared by deallocate's
/// retried path and close_all's parting shot.
rib::RiepMessage FlowAllocator::release_msg(const FlowRec& rec) {
  rib::RiepMessage m;
  m.op = rib::RiepOp::remove;
  m.obj_name = "/dif/flows/" + rec.local.to_string();
  m.obj_class = kClsFlowRelease;
  BufWriter w(8);
  w.put_u16(rec.remote_cep);  // the peer's CEP: how it finds the flow
  w.put_u16(rec.local_cep);   // ours: how its ack finds us
  m.value = std::move(w).take();
  return m;
}

Result<void> FlowAllocator::deallocate(flow::PortId port) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr) return {Err::flow_closed, "no such flow"};
  if (rec->closing) return Ok();  // already in flight: idempotent
  rec->closing = true;
  if (rec->shared) rec->shared->state = flow::FlowState::closing;
  stats_.inc("releases_initiated");
  send_release(port);
  return Ok();
}

void FlowAllocator::send_release(flow::PortId port) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->closing) return;
  if (rec->release_attempts >= kMaxReleaseAttempts || rec->peer.is_null()) {
    if (rec->release_attempts >= kMaxReleaseAttempts)
      stats_.inc("release_timeouts");
    finish_close(*rec);
    return;
  }
  ++rec->release_attempts;
  self_.send_routed_mgmt(rec->peer, release_msg(*rec));

  // The retry timer dies with the record, so a recycled port-id can
  // never be released by a stale timer.
  rec->release_timer =
      self_.sched().schedule_after(kReleaseRetry, [this, port] {
        FlowRec* r = by_port(port);
        if (r != nullptr && r->closing) send_release(port);
      });
}

void FlowAllocator::on_flow_release(const efcp::Pci& pci,
                                    const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  efcp::CepId my_cep = r.get_u16();
  efcp::CepId peer_cep = r.get_u16();
  if (!r.ok()) return;
  // Ack before looking anything up: a retried release for a flow we
  // already retired must still be acked or the peer retries to timeout.
  rib::RiepMessage ack;
  ack.op = rib::RiepOp::reply;
  ack.obj_name = m.obj_name;
  ack.obj_class = kClsFlowReleaseAck;
  BufWriter w(4);
  w.put_u16(peer_cep);
  ack.value = std::move(w).take();
  self_.send_routed_mgmt(pci.src, ack);

  FlowRec* rec = by_cep(my_cep);
  if (rec == nullptr) return;
  // Only the flow's actual peer may release it; a forged release from
  // another member must not tear down someone else's flow.
  if (!(rec->peer == pci.src)) return;
  stats_.inc("releases_received");
  finish_close(*rec);
}

void FlowAllocator::on_flow_release_ack(const efcp::Pci& pci,
                                        const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  efcp::CepId my_cep = r.get_u16();
  if (!r.ok()) return;
  FlowRec* rec = by_cep(my_cep);
  if (rec == nullptr || !rec->closing) return;
  if (!(rec->peer == pci.src)) return;
  finish_close(*rec);
}

/// Retire a flow's state: stats folded up, internal sink told, the app
/// handle closed (on_closed exactly once), maps pruned, port recycled.
void FlowAllocator::finish_close(FlowRec& rec) {
  stats_.inc("flows_closed");
  if (rec.conn) stats_.merge(rec.conn->stats());
  if (rec.on_closed) rec.on_closed();
  std::shared_ptr<flow::detail::FlowShared> shared = std::move(rec.shared);
  flow::PortId port = rec.port;
  std::uint64_t key =
      (static_cast<std::uint64_t>(rec.peer.key()) << 16) | rec.remote_cep;
  remote_flow_index_.erase(key);
  if (rec.local_cep < by_cep_.size()) by_cep_[rec.local_cep] = 0;
  flows_[port].reset();  // rec dies here; its owned timers cancel with it
  --flow_count_;
  self_.host_.release_port_id(port);
  // Fire the app hook after the record is gone, so a handler that
  // immediately allocates a new flow sees consistent allocator state.
  if (shared) shared->finish_close(Error{});
}

void FlowAllocator::close_all(bool notify_peers) {
  std::vector<flow::PortId> ports;
  ports.reserve(flow_count_);
  for (const auto& rec : flows_)
    if (rec) ports.push_back(rec->port);
  for (flow::PortId port : ports) {
    FlowRec* rec = by_port(port);
    if (rec == nullptr) continue;
    if (notify_peers && !rec->peer.is_null()) {
      // Departing: one best-effort release so the peer's port state (and
      // its app's on_closed) retires too; no retries — we won't be here
      // to hear the ack.
      self_.send_routed_mgmt(rec->peer, release_msg(*rec));
    }
    finish_close(*rec);
  }
}

Result<void> FlowAllocator::write(flow::PortId port, BytesView sdu) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->conn) return {Err::flow_closed, "no such flow"};
  if (rec->closing) {
    self_.host_.node_stats()->inc("app_write_bad_port");
    return {Err::flow_closed, "flow is closing"};
  }
  // Unreliable flows have no window to refuse at; probe the RMT class
  // queue so saturation surfaces as would_block instead of tail-drop.
  // The probe repeats the FIB lookup Rmt::send will do — accepted: the
  // app edge is not the relay hot path, and a stale cached port would
  // trade that lookup for missed backpressure after every reroute.
  if (!rec->cube.reliable &&
      !self_.rmt_.would_accept(rec->peer, rec->cube.id)) {
    stats_.inc("write_would_block");
    if (rec->shared) {
      rec->shared->want_writable = true;
      arm_rmt_poll(*rec);
    }
    return {Err::would_block, "RMT class queue full"};
  }
  auto r = rec->conn->write_sdu(sdu);
  if (!r.ok() && r.error().code == Err::backpressure) {
    // The EFCP's refusal is the app edge's would_block: the DTCP window
    // and the bounded send queue are both full.
    stats_.inc("write_would_block");
    if (rec->shared) rec->shared->want_writable = true;
    return {Err::would_block, r.error().msg};
  }
  return r;
}

Result<void> FlowAllocator::write_pkt(flow::PortId port, Packet& sdu) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->conn) return {Err::flow_closed, "no such flow"};
  return rec->conn->write_sdu_pkt(sdu);
}

efcp::Connection* FlowAllocator::connection(flow::PortId port) {
  FlowRec* rec = by_port(port);
  return rec == nullptr ? nullptr : rec->conn.get();
}

void FlowAllocator::set_flow_sink(flow::PortId port,
                                  std::function<void(Packet&&)> on_data,
                                  std::function<void()> on_closed) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr) return;
  rec->sink = std::move(on_data);
  rec->on_closed = std::move(on_closed);
}

}  // namespace rina::ipcp
