// ipcp.hpp — one IPC process: a member of one DIF on one processing
// system. The paper's claim is that networking is this object, repeated:
//
//   * Enrollment  — joining the DIF under its admission policy (§6.1);
//   * Directory   — name -> address, internal to the DIF;
//   * Flow alloc  — request IPC to an application by *name*; get a
//                   port-id back; addresses never reach the app;
//   * EFCP        — per-flow error/flow control with per-DIF policies;
//   * RMT         — relaying & multiplexing over the DIF's ports with
//                   two-step forwarding (routing/graph + relay/forwarding);
//   * Routing     — link-state flooding scoped to this DIF only
//                   (routing/link_state.hpp).
//
// Ports are the IPCP's attachments to the level below: a wire for a
// rank-0 DIF, an N-1 flow for an overlay DIF. The IPCP cannot tell the
// difference — that indistinguishability is the recursion.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "content/store.hpp"
#include "dif/config.hpp"
#include "efcp/connection.hpp"
#include "efcp/pci.hpp"
#include "flow/flow.hpp"
#include "flow/qos.hpp"
#include "naming/addr_map.hpp"
#include "naming/dir_cache.hpp"
#include "naming/directory.hpp"
#include "naming/names.hpp"
#include "relay/forwarding.hpp"
#include "rib/riep.hpp"
#include "rib/sync.hpp"
#include "routing/link_state.hpp"
#include "sim/scheduler.hpp"

namespace rina::ipcp {

class Ipcp;

/// What an IPCP needs from the processing system that hosts it.
class IpcpHost {
 public:
  virtual ~IpcpHost() = default;
  [[nodiscard]] virtual const std::string& node_name() const = 0;
  virtual sim::Scheduler& sched() = 0;
  virtual naming::Address allocate_dif_address(const naming::DifName& dif) = 0;
  virtual flow::PortId allocate_port_id() = 0;
  /// A flow retired its port-id; the node may recycle it (handles hold
  /// shared state, never bare port-ids, so recycling cannot alias).
  virtual void release_port_id(flow::PortId port) = 0;
  /// The node's own stats (app-edge misuse counters are per node, not
  /// per DIF). Shared so a Flow handle outliving the node stays safe.
  virtual std::shared_ptr<Stats> node_stats() = 0;
};

/// Relaying and Multiplexing Task: the forwarding engine of one IPCP.
class Rmt {
 public:
  explicit Rmt(Ipcp& self)
      : self_(self),
        c_pdus_out_(stats_.slot("pdus_out")),
        c_relayed_(stats_.slot("relayed")),
        c_rmt_queue_peak_(stats_.slot("rmt_queue_peak")) {}

  Stats& stats() { return stats_; }
  relay::ForwardingTable& fib() { return fib_; }

  /// Route a PDU originated by this IPCP (EFCP output or routed mgmt).
  void send(efcp::Pdu&& pdu);

  /// Transmit raw on a specific port, bypassing routing (used by tests
  /// and by attackers with a wire — exactly why ingress gates ports).
  Result<void> egress_via(relay::PortIndex port, efcp::Pdu&& pdu);

  /// Queue on a port, honoring the DIF's scheduling discipline. False =
  /// the class queue was full and the PDU was tail-dropped.
  bool egress(relay::PortIndex port, efcp::Pdu&& pdu);
  void drain(relay::PortIndex port);

  /// Would a PDU to `dest` in class `qos` clear the egress queue right
  /// now? The app edge asks this for unreliable flows (no window to
  /// refuse at) so saturation surfaces as would_block, not tail-drop.
  [[nodiscard]] bool would_accept(naming::Address dest, efcp::QosId qos) const;

 private:
  friend class Ipcp;
  /// Scheduling urgency of a QoS class (lower = sooner): the cube's
  /// declared priority, falling back to the raw id for unknown classes.
  [[nodiscard]] std::uint8_t class_priority(efcp::QosId q) const;
  void schedule_drain(relay::PortIndex port);
  Ipcp& self_;
  relay::ForwardingTable fib_;
  Stats stats_;
  // Per-PDU counter cells resolved once (Stats::slot): send/relay/egress
  // run for every forwarded PDU and must not pay a string lookup each.
  std::uint64_t* c_pdus_out_;
  std::uint64_t* c_relayed_;
  std::uint64_t* c_rmt_queue_peak_;
};

/// Enrollment: the only conversation a DIF will have with an outsider.
class Enrollment {
 public:
  explicit Enrollment(Ipcp& self) : self_(self) {}
  Stats& stats() { return stats_; }

 private:
  friend class Ipcp;
  Ipcp& self_;
  Stats stats_;
  // Joiner side: in-progress attempt. The owned timer is both the join
  // timeout and the retry gap — re-arming or cancelling it supersedes
  // any previous attempt, no epoch bookkeeping.
  std::optional<relay::PortIndex> join_port_;
  int attempts_ = 0;
  sim::Timer join_timer_;
  // Member side: deterministic challenge nonces.
  std::uint64_t nonce_counter_ = 0;
};

/// Flow allocator: names in, Flow handles out.
class FlowAllocator {
 public:
  explicit FlowAllocator(Ipcp& self) : self_(self) {}

  /// Detach every app handle on teardown: a Flow that outlives its IPCP
  /// sees writes fail as flow_closed instead of dereferencing freed
  /// state. (Timers die with their owning records automatically.)
  ~FlowAllocator();

  Stats& stats() { return stats_; }

  /// Register an application by name. `accept` receives a Flow handle for
  /// every incoming flow; the allocator keeps the flow's shared state
  /// alive while it is open, so the app may drop the handle and work
  /// purely from the event hooks.
  Result<void> register_app(const naming::AppName& app, flow::AcceptFn accept);
  /// Withdraw a registration: the name leaves this member's accept table
  /// and the DIF's directory (targeted update + cache invalidation in
  /// hierarchical mode, tombstone elsewhere). The app can then register
  /// elsewhere — mobility is unregister here, register there.
  Result<void> unregister_app(const naming::AppName& app);
  [[nodiscard]] bool can_resolve(const naming::AppName& app) const;
  /// Does this DIF offer a QoS cube matching `spec`? (Name-only
  /// allocation skips DIFs that resolve the name but not the spec.)
  [[nodiscard]] bool can_satisfy(const flow::QosSpec& spec) const;

  /// Internal allocation plumbing (overlay adjacencies, Node's Flow
  /// surface). Apps use Node::allocate_flow, which returns a Flow.
  void allocate(const naming::AppName& local, const naming::AppName& remote,
                const flow::QosSpec& spec, flow::AllocateCallback cb);

  /// Bind an app-visible handle to a live flow: wires write/deallocate
  /// ops, the bounded rx queue and the writability signal into `shared`.
  void attach_handle(flow::PortId port,
                     std::shared_ptr<flow::detail::FlowShared> shared);

  Result<void> write(flow::PortId port, BytesView sdu);
  /// Zero-copy write for the recursive case: `sdu` is an upper DIF's
  /// frame riding this flow. Left intact on Err::backpressure (retry).
  Result<void> write_pkt(flow::PortId port, Packet& sdu);
  efcp::Connection* connection(flow::PortId port);

  /// Initiate the release exchange: both ends retire port state, the
  /// peer's on_closed fires. Idempotent while the close is in flight.
  Result<void> deallocate(flow::PortId port);

  /// Redirect a flow's delivery/teardown to an internal consumer (the
  /// overlay port riding this flow).
  void set_flow_sink(flow::PortId port, std::function<void(Packet&&)> on_data,
                     std::function<void()> on_closed);

  void close_all(bool notify_peers);

 private:
  friend class Ipcp;

  struct FlowRec {
    flow::PortId port = 0;
    naming::AppName local, remote;
    naming::Address peer;
    flow::QosCube cube;
    efcp::CepId local_cep = 0, remote_cep = 0;
    std::unique_ptr<efcp::Connection> conn;
    std::shared_ptr<flow::detail::FlowShared> shared;  // app handle state
    std::function<void(Packet&&)> sink;  // overrides app delivery when set
    std::function<void()> on_closed;     // internal (overlay) teardown
    // Release FSM (initiator side).
    bool closing = false;
    int release_attempts = 0;
    // Owned timers: destroying the record (finish_close, teardown)
    // cancels them, so recycled port-ids can never be confused for a
    // stale timer's target.
    sim::Timer release_timer;
    sim::Timer rmt_poll_timer;
  };

  struct Pending {
    naming::AppName local, remote;
    flow::QosSpec spec;
    flow::AllocateCallback cb;
    flow::QosCube cube;
    efcp::CepId local_cep = 0;
    SimTime deadline{};
    bool sent = false;
    sim::Timer timer;  // directory retry / request resend; dies with us
  };

  FlowRec* by_port(flow::PortId p) {
    return p < flows_.size() ? flows_[p].get() : nullptr;
  }
  /// CEP demultiplex for the per-PDU hot path: two vector indexes.
  FlowRec* by_cep(efcp::CepId c) {
    return c < by_cep_.size() ? by_port(by_cep_[c]) : nullptr;
  }
  void set_cep(efcp::CepId c, flow::PortId p) {
    if (by_cep_.size() <= c) by_cep_.resize(static_cast<std::size_t>(c) + 1, 0);
    by_cep_[c] = p;
  }
  void insert_rec(std::unique_ptr<FlowRec> rec) {
    flow::PortId port = rec->port;
    if (flows_.size() <= port) flows_.resize(static_cast<std::size_t>(port) + 1);
    flows_[port] = std::move(rec);
    ++flow_count_;
  }
  [[nodiscard]] const flow::QosCube* find_cube(const flow::QosSpec& spec) const;
  void try_pending(std::uint32_t invoke_id);
  void finish_pending(std::uint32_t invoke_id, Result<flow::FlowInfo> r);
  void create_connection(FlowRec& rec);
  void deliver_sdu(FlowRec& rec, Packet&& sdu);
  void notify_writable(flow::PortId port);
  void arm_rmt_poll(FlowRec& rec);
  void on_flow_req(const efcp::Pci& pci, const rib::RiepMessage& m);
  void on_flow_resp(const efcp::Pci& pci, const rib::RiepMessage& m);
  void on_flow_release(const efcp::Pci& pci, const rib::RiepMessage& m);
  void on_flow_release_ack(const efcp::Pci& pci, const rib::RiepMessage& m);
  static rib::RiepMessage release_msg(const FlowRec& rec);
  void send_release(flow::PortId port);
  void finish_close(FlowRec& rec);

  Ipcp& self_;
  Stats stats_;
  std::map<naming::AppName, flow::AcceptFn> apps_;
  // Hot-path flow lookup is dense: flows_ is indexed by port-id (the
  // host hands them out low-first and recycles), by_cep_ by local CEP-id
  // (sequential, 0 = unused). Both replace per-PDU map walks.
  std::vector<std::unique_ptr<FlowRec>> flows_;
  std::vector<flow::PortId> by_cep_;
  std::size_t flow_count_ = 0;
  std::map<std::uint64_t, flow::PortId> remote_flow_index_;  // (peer, cep)
  std::map<std::uint32_t, Pending> pending_;
  std::uint32_t next_invoke_ = 1;
  efcp::CepId next_cep_ = 1;
};

class Ipcp {
 public:
  Ipcp(IpcpHost& host, const dif::DifConfig& cfg, std::uint32_t dif_id);

  // ---- identity ----
  [[nodiscard]] naming::Address address() const { return address_; }
  [[nodiscard]] bool enrolled() const { return enrolled_; }
  [[nodiscard]] const dif::DifConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t dif_id() const { return dif_id_; }
  [[nodiscard]] const naming::DifName& dif_name() const { return cfg_.name; }
  IpcpHost& host() { return host_; }
  sim::Scheduler& sched() { return host_.sched(); }

  Rmt& rmt() { return rmt_; }
  FlowAllocator& fa() { return fa_; }
  Enrollment& enrollment() { return enrollment_; }
  /// The RMT's content store, or nullptr when the DIF's policy disables
  /// it (rmt_content_store_enabled).
  content::ContentStore* content_store() { return cstore_.get(); }
  naming::Directory& directory() { return dir_; }
  rib::Rib& rib() { return rib_; }
  Stats& stats() { return stats_; }

  /// Sum a counter across this IPCP's stat domains (core, RMT, FA,
  /// enrollment, live and closed EFCP connections).
  [[nodiscard]] std::uint64_t counter_sum(std::string_view name) const;

  // ---- bootstrap (called by the Network façade) ----
  void bootstrap_member(naming::Address addr);  // founding member: no join

  // ---- ports ----
  struct PortInit {
    /// Transmit one encoded frame on the attachment below. Contract:
    /// false = backpressure and the frame is left intact (the RMT keeps
    /// it queued and retries); true = consumed (sent or lost).
    std::function<bool(Packet&)> tx;
    bool is_wire = false;
  };
  relay::PortIndex add_port(PortInit init);
  void start_port(relay::PortIndex idx);  // announce ourselves (Hello)
  void on_port_frame(relay::PortIndex idx, Packet&& frame);
  void set_port_carrier(relay::PortIndex idx, bool up);
  void port_ready(relay::PortIndex idx);
  [[nodiscard]] bool port_up(relay::PortIndex idx) const;
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }

  // ---- bring-up progress (Network reads these between windows) ----
  /// Port-local management PDUs other than keepalives: handed to the
  /// RMT, arrived here, and tail-dropped by this RMT. Summed over a
  /// DIF's members, sent == received + dropped means none is in flight.
  [[nodiscard]] std::uint64_t mgmt_sent() const { return mgmt_sent_; }
  [[nodiscard]] std::uint64_t mgmt_received() const { return mgmt_received_; }
  [[nodiscard]] std::uint64_t mgmt_dropped() const { return mgmt_dropped_; }
  /// An LSU origination or an SPF run is waiting out its debounce.
  [[nodiscard]] bool routing_pending() const {
    return lsu_timer_.armed() || routing_.pending();
  }
  /// Every port with carrier has an enrolled peer.
  [[nodiscard]] bool ports_paired() const;
  /// Link-state records held, this member's own included.
  [[nodiscard]] std::size_t lsdb_size() const { return routing_.lsdb().size(); }
  /// Sequence number of `origin`'s link-state record held here (this
  /// member's own included), 0 if none.
  [[nodiscard]] std::uint64_t lsu_seq_of(naming::Address origin) const {
    return routing_.seq_of(origin);
  }

  // ---- membership ----
  Result<void> enroll_via(relay::PortIndex idx);
  void leave(bool teardown_flows);

  // ---- directory (app registration side-effects) ----
  void publish_app(const naming::AppName& app);
  void unpublish_app(const naming::AppName& app);

  // ---- hierarchical resolution (cfg.dir_hierarchical) ----
  using ResolveCb = std::function<void(std::optional<naming::Address>)>;
  /// Resolve a name: local replica, then TTL cache, then a query up the
  /// resolver chain (member -> region anchor -> root). In flat DIFs this
  /// degenerates to the local lookup. `cb` fires exactly once.
  void resolve_name(const naming::AppName& app, ResolveCb cb);
  naming::DirCache& dir_cache() { return dir_cache_; }
  /// My region's resolver anchor ({region, cfg.dir_anchor_node}).
  [[nodiscard]] naming::Address dir_anchor() const {
    return naming::Address{address_.region, cfg_.dir_anchor_node};
  }

 private:
  friend class Rmt;
  friend class FlowAllocator;
  friend class Enrollment;

  struct Port {
    std::function<bool(Packet&)> tx;
    bool is_wire = false;
    bool carrier = true;        // wire carrier / lower-flow liveness
    bool alive = true;          // keepalive verdict
    bool peer_enrolled = false; // valid Hello seen or join completed
    bool hello_sent = false;
    naming::Address peer;
    relay::EgressQueues queue;  // per-QoS bounded RMT egress above the NIC
    sim::Timer hello_timer;     // Hello re-announce while unanswered
    sim::Timer drain_timer;     // backpressure retry for queue drain
    SimTime last_heard{};
    std::optional<std::uint64_t> join_nonce;  // member side of psk handshake
  };

  std::uint64_t& lazy_cell(std::uint64_t*& cell, std::string_view name) {
    if (cell == nullptr) cell = stats_.slot(name);
    return *cell;
  }

  [[nodiscard]] bool usable(const Port& p) const {
    return p.carrier && p.alive && p.peer_enrolled && !p.peer.is_null();
  }

  // Management-plane plumbing.
  void send_mgmt(relay::PortIndex idx, const rib::RiepMessage& m);
  /// send_mgmt for a message already encoded into `wire` (floods encode
  /// once and send the same bytes on every port).
  void send_mgmt_wire(relay::PortIndex idx, const std::string& cls,
                      const Bytes& wire);
  void send_routed_mgmt(naming::Address dest, const rib::RiepMessage& m);
  void handle_mgmt(relay::PortIndex idx, const efcp::Pdu& pdu);
  void handle_hello(relay::PortIndex idx, const rib::RiepMessage& m);
  void handle_keepalive(relay::PortIndex idx);
  void handle_bye(relay::PortIndex idx);
  void handle_join_msg(relay::PortIndex idx, const rib::RiepMessage& m);
  void handle_lsu(relay::PortIndex idx, const rib::RiepMessage& m);
  void handle_dir_update(relay::PortIndex idx, const rib::RiepMessage& m);
  bool apply_dir_update(const rib::RiepMessage& m);  // true = fresh
  /// Directory snapshot block: the (app, address) pairs within `budget`.
  void put_dir(BufWriter& w, std::size_t budget);
  void send_dir_sync(relay::PortIndex idx);
  void handle_dir_sync(const rib::RiepMessage& m);
  /// DirUpd binding `app` to me (op 1) or withdrawing it (op 2).
  rib::RiepMessage dir_update_msg(const naming::AppName& app, std::uint8_t op);
  void announce_app(const naming::AppName& app);  // mode-dispatched register

  // Hierarchical directory plumbing.
  [[nodiscard]] naming::Address resolver_parent() const;
  std::optional<naming::Address> dir_lookup_for_alloc(const naming::AppName& app);
  std::optional<naming::Address> dir_cache_lookup(const naming::AppName& app);
  void start_dir_query(const naming::AppName& app, ResolveCb cb);
  void send_dir_query(const naming::AppName& app);
  void finish_dir_query(const naming::AppName& app,
                        std::optional<naming::Address> result);
  void send_targeted_dir_update(const naming::AppName& app, std::uint8_t op);
  void send_dir_inval(naming::Address to, const naming::AppName& app,
                      naming::Address at);
  void cascade_dir_inval(const naming::AppName& app, naming::Address at);
  void handle_dir_read(const efcp::Pci& pci, const rib::RiepMessage& m);
  void handle_dir_read_reply(const rib::RiepMessage& m);
  void handle_dir_inval(const rib::RiepMessage& m);

  // Versioned delta RIB sync (cfg.rib_delta_sync; src/rib/sync.hpp).
  void disseminate_dir_delta(const naming::AppName& app, std::uint8_t op);
  void disseminate_delta(const std::string& name, const std::string& cls,
                         Bytes value, std::uint64_t version);
  bool apply_replicated(const rib::DeltaEntry& e);
  static rib::RiepMessage sync_msg(const char* cls, Bytes value);
  void send_sync_msg(relay::PortIndex idx, const char* cls, Bytes value);
  void push_objects(relay::PortIndex idx, const std::vector<std::string>& names);
  void send_port_digest(relay::PortIndex idx);
  void handle_rib_delta(relay::PortIndex idx, const rib::RiepMessage& m);
  void handle_rib_finger(relay::PortIndex idx, const rib::RiepMessage& m);
  void handle_rib_digest(relay::PortIndex idx, const rib::RiepMessage& m);
  void handle_rib_pull(relay::PortIndex idx, const rib::RiepMessage& m);
  void anti_entropy_round();
  void start_sync_timer();
  [[nodiscard]] std::uint64_t auth_token(std::uint64_t nonce) const;
  void send_hello(relay::PortIndex idx);
  void join_attempt(relay::PortIndex idx);
  void admit_joiner(relay::PortIndex idx, const std::string& joiner_name);
  void complete_enrollment(relay::PortIndex idx, const rib::RiepMessage& m);

  // Routing wiring: ports -> neighbor set -> routing_, and LSU spread.
  void adjacency_changed();
  void schedule_spf();
  void run_spf();
  void originate_lsu();
  /// Send `m` on every usable port but `except`; returns how many.
  std::size_t flood(const rib::RiepMessage& m, std::optional<relay::PortIndex> except);
  /// LSDB snapshot block (join accept, fresh adjacency), like put_dir.
  void put_lsdb(BufWriter& w);
  void send_lsdb_sync(relay::PortIndex idx);
  void handle_lsdb_sync(relay::PortIndex idx, const rib::RiepMessage& m);
  void rebuild_neighbor_ports();
  [[nodiscard]] naming::AddrMap<std::vector<relay::PortIndex>> live_neighbors()
      const;
  /// Addresses of live_neighbors(), ascending.
  [[nodiscard]] std::vector<naming::Address> neighbor_set() const;

  // Keepalives.
  void keepalive_tick();

  // Local delivery.
  void deliver_local(efcp::Pdu&& pdu);

  /// RMT content-store policy, applied to data PDUs in relay. True =
  /// the PDU was consumed (an interest answered from the store).
  bool content_store_filter(efcp::Pdu& pdu);

  IpcpHost& host_;
  dif::DifConfig cfg_;
  std::uint32_t dif_id_;
  naming::Address address_;
  bool enrolled_ = false;
  bool departed_ = false;

  std::vector<Port> ports_;
  naming::Directory dir_;
  rib::Rib rib_;
  Stats stats_;
  // Per-mgmt-PDU counter cells (Stats::slot): send_mgmt classifies every
  // keepalive/hello/LSU it emits, which at scale is the busiest non-data
  // path in the node.
  std::uint64_t* c_hellos_sent_ = nullptr;
  std::uint64_t* c_keepalives_sent_ = nullptr;
  std::uint64_t* c_lsus_flooded_ = nullptr;
  std::uint64_t* c_riep_sent_ = nullptr;
  std::uint64_t* c_mgmt_bytes_ = nullptr;  // control bytes on the wire
  // Per-LSU and per-delta cells: a bring-up receives every member's LSUs
  // and deltas from every neighbor, ~1M messages at a thousand members.
  // Resolved on first use (lazy_cell), so a member that never sees one
  // never holds the counter, exactly as with stats_.inc.
  std::uint64_t* c_lsus_received_ = nullptr;
  std::uint64_t* c_lsus_dup_suppressed_ = nullptr;
  std::uint64_t* c_deltas_received_ = nullptr;
  std::uint64_t* c_deltas_dup_suppressed_ = nullptr;
  // Plain counters behind mgmt_sent()/mgmt_received()/mgmt_dropped().
  std::uint64_t mgmt_sent_ = 0;
  std::uint64_t mgmt_received_ = 0;
  std::uint64_t mgmt_dropped_ = 0;

  routing::LinkState routing_;  // LSDB, SPF and FIB install
  Rmt rmt_;
  FlowAllocator fa_;
  Enrollment enrollment_;
  std::unique_ptr<content::ContentStore> cstore_;  // per-DIF RMT policy

  // Directory flood dedup state and the last neighbor set an LSU told.
  std::set<std::uint64_t> dir_flood_seen_;
  std::uint64_t dir_seq_ = 0;
  std::vector<naming::Address> last_neighbor_set_;

  // Hierarchical directory resolution state (cfg_.dir_hierarchical).
  naming::DirCache dir_cache_;
  struct PendingResolve {
    std::vector<ResolveCb> cbs;  // null entries = cache-warming only
    int attempts = 0;
    sim::Timer timer;
  };
  std::map<naming::AppName, PendingResolve> pending_resolve_;
  // Who asked me for a name recently (authorities only; queries land on
  // the resolver chain). Invalidations cascade down these edges instead
  // of flooding the DIF, so a mobility event costs O(actual interest).
  std::map<naming::AppName, naming::AddrMap<SimTime>> dir_interest_;

  // Delta sync state (cfg_.rib_delta_sync): per-origin logs + cursor.
  rib::SyncState sync_;
  std::uint64_t sync_seq_ = 0;  // my own dissemination sequence
  std::uint64_t sync_sent_ = 0; // highest own seq a flood put on a port
  std::size_t sync_rr_ = 0;     // anti-entropy neighbor round-robin
  sim::Timer sync_timer_;

  // Owned timers replace the scheduled/alive-token flags: armed() is the
  // "already scheduled" test and destruction is the cancellation.
  sim::Timer lsu_timer_;
  sim::Timer keepalive_timer_;               // periodic while enrolled
  std::vector<sim::Timer> announce_timers_;  // staggered app re-announces
};

}  // namespace rina::ipcp
