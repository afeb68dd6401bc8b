// network.cpp — the Network façade implementation: wiring IPCPs to links,
// building DIFs, and the mobility/attachment operations.

#include "node/network.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace rina::node {

// ============================== Node ==============================

Node::Node(Network& net, std::string name) : net_(net), name_(std::move(name)) {}

sim::Scheduler& Node::sched() {
  return net_.sharded_ ? net_.sharded_->shard(shard_) : net_.sched_;
}

naming::Address Node::allocate_dif_address(const naming::DifName& dif) {
  return net_.allocate_dif_address(dif);
}

ipcp::Ipcp* Node::ipcp(const naming::DifName& dif) {
  auto it = ipcps_.find(dif.str());
  return it == ipcps_.end() ? nullptr : it->second.get();
}

ipcp::Ipcp& Node::create_ipcp(const dif::DifConfig& cfg) {
  auto it = ipcps_.find(cfg.name.str());
  if (it != ipcps_.end()) return *it->second;
  std::uint32_t id = net_.dif_id_for(cfg.name);
  auto proc = std::make_unique<ipcp::Ipcp>(*this, cfg, id);
  auto* raw = proc.get();
  ipcps_.emplace(cfg.name.str(), std::move(proc));
  return *raw;
}

flow::PortId Node::allocate_port_id() {
  if (!free_ports_.empty()) {
    flow::PortId p = free_ports_.back();
    free_ports_.pop_back();
    return p;
  }
  return next_port_++;
}

void Node::release_port_id(flow::PortId port) { free_ports_.push_back(port); }

Result<void> Node::register_app(const naming::AppName& app,
                                const naming::DifName& dif,
                                flow::AcceptFn accept) {
  auto* proc = ipcp(dif);
  if (proc == nullptr)
    return {Err::not_found, name_ + " is not a member of " + dif.str()};
  return proc->fa().register_app(app, std::move(accept));
}

namespace {

/// Completion for both allocate paths: bind the allocator's record to the
/// app's handle, or surface the failure through it. If the app cancelled
/// (deallocated while allocating), release the freshly made flow instead
/// of handing it to a handle that already said goodbye.
flow::AllocateCallback adopt_into(std::shared_ptr<flow::detail::FlowShared> sh,
                                  ipcp::Ipcp* proc) {
  return [sh, proc](Result<flow::FlowInfo> r) {
    if (!r.ok()) {
      if (sh->state == flow::FlowState::allocating)
        sh->finish_close(r.error());
      return;
    }
    if (sh->state != flow::FlowState::allocating) {
      (void)proc->fa().deallocate(r.value().port);
      return;
    }
    proc->fa().attach_handle(r.value().port, sh);
    sh->open_with(r.value());
  };
}

}  // namespace

flow::Flow Node::allocate_flow_on(const naming::DifName& dif,
                                  const naming::AppName& local,
                                  const naming::AppName& remote,
                                  const flow::QosSpec& spec) {
  auto sh = std::make_shared<flow::detail::FlowShared>();
  sh->node_stats = stats_;
  auto* proc = ipcp(dif);
  if (proc == nullptr) {
    sh->finish_close({Err::not_found, name_ + " is not a member of " + dif.str()});
    return flow::Flow(sh);
  }
  proc->fa().allocate(local, remote, spec, adopt_into(sh, proc));
  return flow::Flow(sh);
}

flow::Flow Node::allocate_flow(const naming::AppName& local,
                               const naming::AppName& remote,
                               const flow::QosSpec& spec) {
  auto sh = std::make_shared<flow::detail::FlowShared>();
  sh->node_stats = stats_;
  // No DIF named: consult the directory of every DIF this node is
  // enrolled in and take one that resolves the name AND offers the
  // requested service class. Directory entries may still be propagating,
  // so poll with a deadline.
  SimTime deadline = sched().now() + SimTime::from_sec(8);
  // Retry state: the step closure plus the timer that re-runs it. The
  // step holds only a weak self-reference (a strong one would be a
  // shared_ptr cycle); each scheduled retry owns the strong reference,
  // so the state dies when the last pending retry fires or is torn down.
  struct Retry {
    std::function<void()> step;
    sim::Timer timer;
  };
  auto attempt = std::make_shared<Retry>();
  std::weak_ptr<Retry> weak_attempt = attempt;
  attempt->step = [this, local, remote, spec, sh, deadline, weak_attempt] {
    if (sh->state != flow::FlowState::allocating) return;  // app cancelled
    bool resolved_somewhere = false;
    bool any_satisfies = false;
    for (auto& [name, proc] : ipcps_) {
      if (!proc->enrolled()) continue;
      bool satisfies = proc->fa().can_satisfy(spec);
      any_satisfies = any_satisfies || satisfies;
      if (!proc->resolver().can_resolve(remote)) continue;
      resolved_somewhere = true;
      if (!satisfies) continue;
      proc->fa().allocate(local, remote, spec, adopt_into(sh, proc.get()));
      return;
    }
    // Fail fast on a spec no enrolled DIF can ever serve: cube sets are
    // fixed at DIF configuration, so once the name resolves somewhere,
    // waiting cannot conjure the class. (Directory entries DO propagate,
    // so an unresolved name — or a satisfying DIF that may still learn
    // it — keeps polling until the deadline.)
    if (resolved_somewhere && !any_satisfies) {
      stats_->inc("alloc_no_such_cube");
      sh->finish_close(
          {Err::no_such_cube,
           "no DIF on " + name_ + " offers a QoS cube matching the spec" +
               (spec.cube_hint.empty() ? "" : " '" + spec.cube_hint + "'")});
      return;
    }
    if (sched().now() >= deadline) {
      sh->finish_close({Err::not_found, "no DIF on " + name_ + " resolves " +
                                            remote.to_string()});
      return;
    }
    auto self = weak_attempt.lock();
    if (self)
      self->timer = sched().schedule_after(SimTime::from_ms(100),
                                           [self] { self->step(); });
  };
  attempt->step();
  return flow::Flow(sh);
}

Result<void> Node::write(flow::PortId port, BytesView sdu) {
  for (auto& [name, proc] : ipcps_) {
    if (proc->fa().connection(port) != nullptr) return proc->fa().write(port, sdu);
  }
  stats_->inc("app_write_bad_port");
  return {Err::flow_closed, "no flow with port-id " + std::to_string(port)};
}

// ============================= Network =============================

Network::Network(std::uint64_t seed) : seed_(seed) {}
Network::~Network() = default;

Node& Network::node(const std::string& name) {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    it = nodes_.emplace(name, std::make_unique<Node>(*this, name)).first;
    if (sharded_) it->second->shard_ = shard_of(name);
  }
  return *it->second;
}

void Network::enable_sharding(int shards, int threads,
                              std::size_t ring_capacity) {
  if (!nodes_.empty() || !links_.empty() || sharded_) {
    std::fprintf(stderr,
                 "Network::enable_sharding: must run before any node/link\n");
    std::abort();
  }
  ring_capacity_ = ring_capacity;
  sharded_ = std::make_unique<sim::ShardedScheduler>(shards, threads);
}

void Network::assign_shard(const std::string& node, int shard) {
  if (sharded_ == nullptr || shard < 0 || shard >= sharded_->shard_count() ||
      nodes_.count(node) != 0) {
    std::fprintf(stderr,
                 "Network::assign_shard: sharding off, shard out of range, "
                 "or node '%s' already exists\n", node.c_str());
    std::abort();
  }
  shard_plan_[node] = shard;
}

int Network::shard_of(const std::string& node) const {
  auto it = shard_plan_.find(node);
  return it == shard_plan_.end() ? 0 : it->second;
}

std::uint32_t Network::dif_id_for(const naming::DifName& dif) {
  auto it = difs_.find(dif.str());
  if (it != difs_.end()) return it->second.id;
  DifEntry e;
  e.cfg.name = dif;
  e.id = next_dif_id_++;
  difs_.emplace(dif.str(), e);
  return e.id;
}

Network::DifEntry& Network::dif_entry(const dif::DifConfig& cfg) {
  auto it = difs_.find(cfg.name.str());
  if (it == difs_.end()) {
    DifEntry e;
    e.cfg = cfg;
    e.id = next_dif_id_++;
    it = difs_.emplace(cfg.name.str(), e).first;
  } else {
    it->second.cfg = cfg;  // builders refine the registry config
  }
  return it->second;
}

Network::DifEntry* Network::find_dif(const naming::DifName& dif) {
  auto it = difs_.find(dif.str());
  return it == difs_.end() ? nullptr : &it->second;
}

naming::Address Network::allocate_dif_address(const naming::DifName& dif) {
  auto* e = find_dif(dif);
  if (e == nullptr) return naming::Address{1, 1};
  return naming::Address{1, e->next_addr++};
}

sim::Link& Network::add_link(const std::string& a, const std::string& b,
                             const LinkOpts& opts) {
  Node& na = node(a);
  Node& nb = node(b);
  sim::LinkConfig cfg = opts.to_config();
  auto rec = std::make_unique<LinkRec>();
  rec->a = a;
  rec->b = b;
  // Each endpoint's timers (serialization, delivery) run on its own
  // node's shard; on an unsharded Network both resolve to sched_.
  rec->link = std::make_unique<sim::Link>(na.sched(), nb.sched(), cfg,
                                          seed_ * 0x9e3779b9ULL + ++link_seq_, a, b);
  if (sharded_ && na.shard_ != nb.shard_) {
    sharded_->note_cross_delay(cfg.delay);  // aborts on non-positive delay
    rec->link->set_cross(
        0, &sharded_->add_boundary(na.shard_, nb.shard_, ring_capacity_));
    rec->link->set_cross(
        1, &sharded_->add_boundary(nb.shard_, na.shard_, ring_capacity_));
  }
  auto* raw = rec.get();
  // NIC demux: frames carry a dif-id prefix; carrier and ready events fan
  // out to every DIF attached on the endpoint. The prefix is pulled off
  // in place — the Packet rides up the stack without a copy.
  for (int side = 0; side < 2; ++side) {
    auto& ep = rec->link->ep(side);
    ep.set_receiver([raw, side](Packet&& frame) {
      BufReader r(frame.view());
      std::uint32_t dif_id = r.get_u32();
      if (!r.ok()) return;
      Attach* at = raw->find_attach_side(side, dif_id);
      if (at == nullptr) return;
      frame.pull(4);
      at->proc->on_port_frame(at->idx, std::move(frame));
    });
    ep.set_on_carrier([raw, side](bool up) {
      for (auto& [id, at] : raw->attach[side]) at.proc->set_port_carrier(at.idx, up);
    });
    ep.set_on_ready([raw, side] {
      for (auto& [id, at] : raw->attach[side]) at.proc->port_ready(at.idx);
    });
  }
  links_.push_back(std::move(rec));
  return *raw->link;
}

sim::Link* Network::link_between(const std::string& a, const std::string& b) {
  for (auto& rec : links_)
    if ((rec->a == a && rec->b == b) || (rec->a == b && rec->b == a))
      return rec->link.get();
  return nullptr;
}

Result<void> Network::set_link_state(const std::string& a, const std::string& b,
                                     bool up) {
  bool found = false;
  for (auto& rec : links_) {
    if (!((rec->a == a && rec->b == b) || (rec->a == b && rec->b == a))) continue;
    found = true;
    if (rec->link->up() != up) {
      rec->link->set_up(up);
      return Ok();
    }
  }
  if (!found)
    return {Err::not_found, "no link between " + a + " and " + b};
  return Ok();  // every link already in the requested state
}

relay::PortIndex Network::wire_port(LinkRec& rec, int side, ipcp::Ipcp& proc) {
  auto* ep = &rec.link->ep(side);
  std::uint32_t dif_id = proc.dif_id();
  ipcp::Ipcp::PortInit init;
  init.is_wire = true;
  init.tx = [ep, dif_id](Packet& frame) {
    // Tag the frame with the DIF id in its headroom. On backpressure the
    // link leaves the frame untouched; roll the tag back off (frontier
    // included) so the RMT's retry of this exact Packet re-tags in
    // place instead of paying a copy-on-write.
    store_be32(frame.prepend(4), dif_id);
    if (ep->send(std::move(frame))) return true;
    frame.unprepend(4);
    return false;
  };
  relay::PortIndex idx = proc.add_port(std::move(init));
  if (!rec.link->up()) proc.set_port_carrier(idx, false);
  rec.set_attach(side, dif_id, Attach{&proc, idx});
  return idx;
}

Network::LinkRec* Network::find_unwired_link(const std::string& a,
                                             const std::string& b,
                                             std::uint32_t dif_id,
                                             int* side_of_a) {
  for (auto& rec : links_) {
    int side;
    if (rec->a == a && rec->b == b) {
      side = 0;
    } else if (rec->a == b && rec->b == a) {
      side = 1;
    } else {
      continue;
    }
    if (rec->find_attach_side(0, dif_id) != nullptr ||
        rec->find_attach_side(1, dif_id) != nullptr)
      continue;
    *side_of_a = side;
    return rec.get();
  }
  return nullptr;
}

Network::Attach* Network::find_attach(const std::string& node_name,
                                      const std::string& peer,
                                      std::uint32_t dif_id) {
  for (auto& rec : links_) {
    int side;
    if (rec->a == node_name && rec->b == peer) {
      side = 0;
    } else if (rec->a == peer && rec->b == node_name) {
      side = 1;
    } else {
      continue;
    }
    if (Attach* at = rec->find_attach_side(side, dif_id); at != nullptr)
      return at;
  }
  return nullptr;
}

// Address plan: explicit assignments win; the rest are dealt from
// region 1 above the highest explicit region-1 address. Every founding
// member gets its IPCP created and enrolled.
void Network::bootstrap_members(DifEntry& entry, const DifSpec& spec) {
  for (const auto& [name, addr] : spec.addresses)
    if (addr.region == 1)
      entry.next_addr =
          std::max<std::uint16_t>(entry.next_addr, addr.node + 1);
  for (const auto& m : spec.members) {
    Node& n = node(m);
    ipcp::Ipcp& proc = n.create_ipcp(entry.cfg);
    auto it = spec.addresses.find(m);
    proc.bootstrap_member(it != spec.addresses.end()
                              ? it->second
                              : naming::Address{1, entry.next_addr++});
  }
}

Result<void> Network::build_link_dif(DifSpec spec) {
  if (spec.cfg.name.str().empty()) return {Err::invalid, "DIF needs a name"};
  DifEntry& entry = dif_entry(spec.cfg);
  bootstrap_members(entry, spec);

  // Wire every member-to-member link (parallel links => parallel PoAs)
  // and exchange greetings.
  std::map<std::string, std::size_t> ports;
  for (const auto& m : spec.members) ports[m] = 0;
  for (auto& rec : links_) {
    if (ports.count(rec->a) == 0 || ports.count(rec->b) == 0) continue;
    if (rec->find_attach_side(0, entry.id) != nullptr) continue;
    auto* pa = node(rec->a).ipcp(spec.cfg.name);
    auto* pb = node(rec->b).ipcp(spec.cfg.name);
    relay::PortIndex ia = wire_port(*rec, 0, *pa);
    relay::PortIndex ib = wire_port(*rec, 1, *pb);
    pa->start_port(ia);
    pb->start_port(ib);
    ++ports[rec->a];
    ++ports[rec->b];
  }
  // Build is a bootstrap: run the exchange (hellos, LSU flood, SPF) so
  // the DIF is ready for service when this returns.
  settle(spec.cfg.name, ports, SimTime::from_ms(100));
  return Ok();
}

// A build ends when the DIF's own management has gone quiet, not after
// a fixed time: the clock is shared, so a fixed run would replay every
// other DIF's keepalives once per build. Quiet means every member is
// enrolled and has all its ports, every port with carrier has an
// enrolled peer, no LSU or SPF debounce is armed, and no management PDU
// other than a keepalive is in flight. The check is O(members) and runs
// between steps on the driver thread, never per event. A DIF that never
// goes quiet (a lossy wire, an unanswered hello) runs to `cap`, exactly
// as a fixed run would.
void Network::settle(const naming::DifName& dif,
                     const std::map<std::string, std::size_t>& ports,
                     SimTime cap) {
  std::vector<std::pair<const ipcp::Ipcp*, std::size_t>> members;
  for (const auto& [name, want] : ports)
    members.emplace_back(node(name).ipcp(dif), want);
  auto quiet = [&members] {
    std::uint64_t sent = 0, done = 0;
    for (const auto& [proc, want] : members) {
      if (!proc->enrolled() || proc->port_count() < want ||
          !proc->ports_paired() || proc->routing_pending())
        return false;
      sent += proc->mgmt_sent();
      done += proc->mgmt_received() + proc->mgmt_dropped();
    }
    return sent == done;
  };
  const SimTime deadline = now() + cap;
  while (now() < deadline) {
    run_for(std::min(sim::kPollStep, deadline - now()));
    if (quiet()) return;
  }
}

naming::AppName Network::overlay_app(const naming::DifName& dif,
                                     const std::string& node_name) {
  return naming::AppName("ipcp." + dif.str() + "." + node_name);
}

Result<void> Network::register_overlay_member(const naming::DifName& dif,
                                              const std::string& node_name,
                                              const naming::DifName& lower) {
  Node& n = node(node_name);
  auto* upper = n.ipcp(dif);
  if (upper == nullptr)
    return {Err::not_found, node_name + " has no IPCP for " + dif.str()};
  auto* lp = n.ipcp(lower);
  if (lp == nullptr)
    return {Err::not_found, node_name + " is not a member of " + lower.str()};

  std::string key = dif.str() + "\n" + node_name + "\n" + lower.str();
  naming::AppName app = overlay_app(dif, node_name);
  if (overlay_registered_.count(key) != 0) {
    // Re-registration after (re)enrollment: refresh the directory entry
    // (the member's lower address may have changed).
    lp->resolver().publish_app(app);
    return Ok();
  }
  overlay_registered_.insert(key);

  // Overlay members are internal consumers: accept the incoming lower
  // flow, then move it onto an internal sink (bind_overlay_port) — the
  // app-visible rx queue never sees recursion traffic.
  std::string nn = node_name;
  naming::DifName d = dif, low = lower;
  return n.register_app(app, lower, [this, nn, d, low](flow::Flow f) {
    (void)bind_overlay_port(nn, d, low, f.port());
  });
}

relay::PortIndex Network::bind_overlay_port(const std::string& node_name,
                                            const naming::DifName& dif,
                                            const naming::DifName& lower,
                                            flow::PortId lower_port) {
  Node& n = node(node_name);
  auto* upper = n.ipcp(dif);
  auto* lp = n.ipcp(lower);
  // Port-ids are recycled after a flow retires, so the tx closure must
  // not trust its captured number once the lower flow closes — a stale
  // write would land in whatever new flow inherited the id. The sink's
  // on_closed severs the binding before the id can be reused.
  auto lower_open = std::make_shared<bool>(true);
  ipcp::Ipcp::PortInit init;
  init.is_wire = false;
  init.tx = [lp, lower_port, lower_open](Packet& frame) {
    if (!*lower_open) return true;  // dropped: lower flow gone
    // The recursion's fast path: the upper DIF's frame enters the lower
    // DIF as a Packet, so the lower EFCP prepends its PCI into the same
    // buffer. Backpressure asks the RMT to hold the PDU (frame is left
    // intact); any other failure is a drop (the upper EFCP recovers if
    // its policy says so).
    auto r = lp->fa().write_pkt(lower_port, frame);
    return r.ok() || r.error().code != Err::backpressure;
  };
  relay::PortIndex idx = upper->add_port(std::move(init));
  lp->fa().set_flow_sink(
      lower_port,
      [upper, idx](Packet&& sdu) { upper->on_port_frame(idx, std::move(sdu)); },
      [upper, idx, lower_open] {
        *lower_open = false;
        upper->set_port_carrier(idx, false);
      });
  return idx;
}

Result<void> Network::connect_overlay_members(const naming::DifName& dif,
                                              const OverlayAdj& adj) {
  Node& na = node(adj.a);
  auto* upper = na.ipcp(dif);
  if (upper == nullptr)
    return {Err::not_found, adj.a + " has no IPCP for " + dif.str()};
  auto* lp = na.ipcp(adj.lower);
  if (lp == nullptr)
    return {Err::not_found, adj.a + " is not a member of " + adj.lower.str()};

  naming::AppName local = overlay_app(dif, adj.a);
  naming::AppName remote = overlay_app(dif, adj.b);
  std::string a = adj.a;
  naming::DifName d = dif, low = adj.lower;
  lp->fa().allocate(local, remote, adj.qos,
                    [this, a, d, low](Result<flow::FlowInfo> r) {
                      if (!r.ok()) return;  // lower DIF never converged
                      relay::PortIndex idx =
                          bind_overlay_port(a, d, low, r.value().port);
                      node(a).ipcp(d)->start_port(idx);
                    });
  return Ok();
}

Result<relay::PortIndex> Network::make_overlay_port(const naming::DifName& dif,
                                                    const OverlayAdj& adj,
                                                    const std::string& for_node) {
  Node& n = node(for_node);
  auto* upper = n.ipcp(dif);
  if (upper == nullptr)
    return {Err::not_found, for_node + " has no IPCP for " + dif.str()};
  auto* lp = n.ipcp(adj.lower);
  if (lp == nullptr)
    return {Err::not_found, for_node + " is not a member of " + adj.lower.str()};

  // The lower flow is allocated asynchronously; until it is up, the port
  // exists but transmits into the void (enrollment retries cover this).
  // The binding is also severed when the lower flow closes, so the
  // captured port-id can be recycled without this port aliasing it.
  auto bound = std::make_shared<std::optional<flow::PortId>>();
  ipcp::Ipcp::PortInit init;
  init.is_wire = false;
  init.tx = [lp, bound](Packet& frame) {
    if (!bound->has_value()) return true;  // dropped: not bound
    auto r = lp->fa().write_pkt(bound->value(), frame);
    return r.ok() || r.error().code != Err::backpressure;
  };
  relay::PortIndex idx = upper->add_port(std::move(init));

  naming::AppName local = overlay_app(dif, for_node);
  naming::AppName remote = overlay_app(dif, adj.a == for_node ? adj.b : adj.a);
  lp->fa().allocate(local, remote, adj.qos,
                    [lp, upper, idx, bound](Result<flow::FlowInfo> r) {
                      if (!r.ok()) return;
                      *bound = r.value().port;
                      lp->fa().set_flow_sink(
                          r.value().port,
                          [upper, idx](Packet&& sdu) {
                            upper->on_port_frame(idx, std::move(sdu));
                          },
                          [upper, idx, bound] {
                            bound->reset();
                            upper->set_port_carrier(idx, false);
                          });
                    });
  return idx;
}

Result<void> Network::build_overlay_dif(DifSpec spec, std::vector<OverlayAdj> adjs) {
  if (spec.cfg.name.str().empty()) return {Err::invalid, "DIF needs a name"};
  DifEntry& entry = dif_entry(spec.cfg);
  bootstrap_members(entry, spec);
  for (const auto& adj : adjs) {
    auto ra = register_overlay_member(spec.cfg.name, adj.a, adj.lower);
    if (!ra.ok()) return ra;
    auto rb = register_overlay_member(spec.cfg.name, adj.b, adj.lower);
    if (!rb.ok()) return rb;
  }
  std::map<std::string, std::size_t> ports;
  for (const auto& m : spec.members) ports[m] = 0;
  for (const auto& adj : adjs) {
    auto rc = connect_overlay_members(spec.cfg.name, adj);
    if (!rc.ok()) return rc;
    ++ports[adj.a];
    ++ports[adj.b];
  }
  // Let the lower flows come up and the overlay's routing converge: each
  // adjacency's lower flow allocation (directory polls, request,
  // response), then hellos, LSU flood and debounced SPF.
  settle(spec.cfg.name, ports, SimTime::from_ms(400));
  return Ok();
}

Result<std::pair<relay::PortIndex, relay::PortIndex>> Network::wire_ipcps(
    const naming::DifName& dif, const std::string& a, const std::string& b) {
  auto* pa = node(a).ipcp(dif);
  auto* pb = node(b).ipcp(dif);
  if (pa == nullptr || pb == nullptr)
    return {Err::not_found, "both nodes need an IPCP for " + dif.str()};
  int side_of_a = 0;
  LinkRec* rec = find_unwired_link(a, b, pa->dif_id(), &side_of_a);
  if (rec == nullptr)
    return {Err::not_found, "no unwired link between " + a + " and " + b};
  relay::PortIndex ia = wire_port(*rec, side_of_a, *pa);
  relay::PortIndex ib = wire_port(*rec, 1 - side_of_a, *pb);
  return std::pair<relay::PortIndex, relay::PortIndex>{ia, ib};
}

Result<void> Network::connect_members(const naming::DifName& dif,
                                      const std::string& a, const std::string& b) {
  auto wired = wire_ipcps(dif, a, b);
  if (!wired.ok()) return wired.error();
  node(a).ipcp(dif)->start_port(wired.value().first);
  node(b).ipcp(dif)->start_port(wired.value().second);
  return Ok();
}

Result<void> Network::attach_via_link(const naming::DifName& dif,
                                      const std::string& newcomer,
                                      const std::string& via) {
  auto* entry = find_dif(dif);
  if (entry == nullptr) return {Err::not_found, "no such DIF: " + dif.str()};
  Node& n = node(newcomer);
  auto* via_proc = node(via).ipcp(dif);
  if (via_proc == nullptr)
    return {Err::not_found, via + " is not a member of " + dif.str()};
  ipcp::Ipcp& proc = n.create_ipcp(entry->cfg);

  // Reuse an existing attachment over a newcomer—via link, else wire one.
  relay::PortIndex idx;
  if (Attach* at = find_attach(newcomer, via, proc.dif_id()); at != nullptr) {
    idx = at->idx;
  } else {
    int side = 0;
    LinkRec* rec = find_unwired_link(newcomer, via, proc.dif_id(), &side);
    if (rec == nullptr)
      return {Err::not_found, "no link between " + newcomer + " and " + via};
    idx = wire_port(*rec, side, proc);
    (void)wire_port(*rec, 1 - side, *via_proc);
  }
  return proc.enroll_via(idx);
}

std::uint64_t Network::sum_dif_counter(const naming::DifName& dif,
                                       const std::string& counter) {
  std::uint64_t total = 0;
  for (auto& [name, n] : nodes_) {
    auto* proc = n->ipcp(dif);
    if (proc != nullptr) total += proc->counter_sum(counter);
  }
  return total;
}

std::uint64_t Network::sum_link_counter(const std::string& counter) const {
  std::uint64_t total = 0;
  for (const auto& rec : links_) total += rec->link->counter(counter);
  return total;
}

std::uint64_t Network::max_dif_counter(const naming::DifName& dif,
                                       const std::string& counter) {
  std::uint64_t best = 0;
  for (auto& [name, n] : nodes_) {
    auto* proc = n->ipcp(dif);
    if (proc != nullptr) best = std::max(best, proc->counter_sum(counter));
  }
  return best;
}

}  // namespace rina::node
