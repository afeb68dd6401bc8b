// test_fib — Dijkstra with equal-cost sets, two-step forwarding lookups
// (late PoA binding, round-robin), region aggregation, the directory, and
// a seeded randomized check that the dense routing graph reproduces the
// std::map-keyed reference exactly.
#include "naming/directory.hpp"
#include "relay/forwarding.hpp"
#include "routing/graph.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <random>
#include <set>
#include <vector>

#include "test_util.hpp"

using namespace rina;
using naming::Address;

// The std::map-keyed routing graph exactly as it stood before the
// control plane moved to naming::AddrMap, kept as the reference the dense
// implementation must reproduce bit for bit (dist, next-hop order,
// parent order, repair deltas).
namespace ref {
using namespace rina;
using Cost = std::uint32_t;
inline constexpr Cost kInfinity = std::numeric_limits<Cost>::max();

struct SpfResult {
  struct Entry {
    Cost dist = kInfinity;
    // First-hop neighbors of the source on every equal-cost shortest path.
    std::vector<naming::Address> next_hops;
    // Immediate predecessors on every equal-cost shortest path (the
    // SP-DAG in-neighbors). Incremental repair walks these.
    std::vector<naming::Address> parents;
  };
  std::map<naming::Address, Entry> entries;
};

/// One edge-cost transition for spf_incremental. kInfinity on either
/// side means the edge was absent / is being removed.
struct EdgeChange {
  naming::Address from;
  naming::Address to;
  Cost old_cost = kInfinity;
  Cost new_cost = kInfinity;
};

/// What an incremental run did — the caller updates its FIB from
/// `changed` + `removed` instead of rebuilding it.
struct SpfDelta {
  bool skipped = false;            // nothing touched a shortest path
  std::vector<naming::Address> changed;  // entries recomputed (dist/hops)
  std::vector<naming::Address> removed;  // destinations now unreachable
  std::size_t recomputed = 0;            // vertices touched by repair
};

class Graph {
 public:
  struct Edge {
    naming::Address to;
    Cost cost;
  };

  void add_edge(naming::Address from, naming::Address to, Cost cost) {
    upsert_min(adj_[from], to, cost);
    (void)adj_[to];  // make the vertex known even with no out-edges
    upsert_min(radj_[to], from, cost);
  }

  /// Exact upsert: the edge takes `cost` even if larger than before.
  void set_edge(naming::Address from, naming::Address to, Cost cost) {
    upsert_exact(adj_[from], to, cost);
    (void)adj_[to];
    upsert_exact(radj_[to], from, cost);
  }

  void remove_edge(naming::Address from, naming::Address to) {
    erase_edge(adj_, from, to);
    erase_edge(radj_, to, from);
  }

  [[nodiscard]] Cost edge_cost(naming::Address from, naming::Address to) const {
    auto it = adj_.find(from);
    if (it == adj_.end()) return kInfinity;
    for (const Edge& e : it->second)
      if (e.to == to) return e.cost;
    return kInfinity;
  }

  void clear() {
    adj_.clear();
    radj_.clear();
  }

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }

  [[nodiscard]] SpfResult dijkstra(naming::Address src) const {
    SpfResult out;
    auto& entries = out.entries;
    entries[src].dist = 0;

    using QItem = std::pair<Cost, naming::Address>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> q;
    q.emplace(0, src);
    std::map<naming::Address, bool> done;

    while (!q.empty()) {
      auto [d, u] = q.top();
      q.pop();
      if (done[u]) continue;
      done[u] = true;
      auto it = adj_.find(u);
      if (it == adj_.end()) continue;
      for (const Edge& e : it->second) {
        if (e.cost == kInfinity) continue;
        Cost nd = d + e.cost;
        auto& ent = entries[e.to];
        // First-hop propagation: the source's neighbors seed themselves.
        std::vector<naming::Address> via =
            u == src ? std::vector<naming::Address>{e.to} : entries[u].next_hops;
        if (nd < ent.dist) {
          ent.dist = nd;
          ent.next_hops = via;
          ent.parents = {u};
          q.emplace(nd, e.to);
        } else if (nd == ent.dist) {
          for (const auto& h : via)
            if (std::find(ent.next_hops.begin(), ent.next_hops.end(), h) ==
                ent.next_hops.end())
              ent.next_hops.push_back(h);
          if (std::find(ent.parents.begin(), ent.parents.end(), u) ==
              ent.parents.end())
            ent.parents.push_back(u);
        }
      }
    }
    entries.erase(src);
    return out;
  }

  /// Repair `prev` (a result for `src` consistent with this graph before
  /// `changes` were applied to it) into the result for the current
  /// graph. `changes` describe cost transitions already applied via
  /// set_edge/remove_edge. See the header comment for guarantees.
  [[nodiscard]] SpfResult spf_incremental(naming::Address src,
                                          const SpfResult& prev,
                                          const std::vector<EdgeChange>& changes,
                                          SpfDelta& delta) const {
    auto addc = [](Cost a, Cost b) -> Cost {
      if (a == kInfinity || b == kInfinity) return kInfinity;
      std::uint64_t s = static_cast<std::uint64_t>(a) + b;
      return s >= kInfinity ? kInfinity : static_cast<Cost>(s);
    };
    auto prev_dist = [&](naming::Address a) -> Cost {
      if (a == src) return 0;
      auto it = prev.entries.find(a);
      return it == prev.entries.end() ? kInfinity : it->second.dist;
    };

    // 1. Which changes can matter? A worsened edge only if it was tight
    // (on a shortest path); an improved edge only if its new cost meets
    // or beats the target's distance (== still matters: new equal-cost
    // path changes the hop set).
    std::vector<const EdgeChange*> worse_hit, better_hit;
    for (const auto& ch : changes) {
      if (ch.to == src || ch.from == ch.to) continue;
      Cost du = prev_dist(ch.from);
      Cost dv = prev_dist(ch.to);
      if (ch.new_cost > ch.old_cost) {
        if (dv != kInfinity && addc(du, ch.old_cost) == dv)
          worse_hit.push_back(&ch);
      } else if (ch.new_cost < ch.old_cost) {
        Cost cand = addc(du, ch.new_cost);
        if (cand != kInfinity && cand <= dv) better_hit.push_back(&ch);
      }
    }
    if (worse_hit.empty() && better_hit.empty()) {
      delta.skipped = true;
      return prev;
    }

    // 2. Dirty set: targets of worsened tight edges and all their SP-DAG
    // descendants (conservative: any dirty parent dirties the child).
    std::set<naming::Address> dirty;
    std::map<naming::Address, std::vector<naming::Address>> children;
    for (const auto& [v, e] : prev.entries)
      for (const auto& p : e.parents) children[p].push_back(v);
    std::vector<naming::Address> stack;
    auto mark = [&](naming::Address v) {
      if (v != src && dirty.insert(v).second) stack.push_back(v);
    };
    for (const auto* ch : worse_hit) mark(ch->to);
    while (!stack.empty()) {
      naming::Address v = stack.back();
      stack.pop_back();
      auto it = children.find(v);
      if (it == children.end()) continue;
      for (const auto& c : it->second) mark(c);
    }

    SpfResult out = prev;
    for (const auto& v : dirty) out.entries.erase(v);
    auto cur_dist = [&](naming::Address a) -> Cost {
      if (a == src) return 0;
      auto it = out.entries.find(a);
      return it == out.entries.end() ? kInfinity : it->second.dist;
    };

    // 3. Phase A — distances. Seed every dirty vertex from its clean
    // in-neighbors and every improving edge from its (clean) source,
    // then run Dijkstra over the affected region only. Clean distances
    // are valid lower bounds: a clean vertex has no dirty parent, so
    // its old shortest path is intact.
    using QItem = std::pair<Cost, naming::Address>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> q;
    for (const auto& v : dirty) {
      auto rit = radj_.find(v);
      if (rit == radj_.end()) continue;
      for (const Edge& ie : rit->second) {  // ie.to = in-neighbor of v
        if (dirty.count(ie.to)) continue;
        Cost cand = addc(cur_dist(ie.to), ie.cost);
        if (cand != kInfinity) q.emplace(cand, v);
      }
    }
    for (const auto* ch : better_hit) {
      if (dirty.count(ch->from)) continue;
      Cost cand = addc(cur_dist(ch->from), ch->new_cost);
      if (cand != kInfinity) q.emplace(cand, ch->to);
    }

    std::set<naming::Address> settled, hops_dirty;
    while (!q.empty()) {
      auto [d, u] = q.top();
      q.pop();
      if (settled.count(u)) continue;
      Cost cu = cur_dist(u);
      if (d > cu) continue;
      if (d == cu && out.entries.count(u)) {
        // Equal-cost path appeared: distance stands, hops need repair.
        hops_dirty.insert(u);
        continue;
      }
      out.entries[u].dist = d;
      settled.insert(u);
      hops_dirty.insert(u);
      auto it = adj_.find(u);
      if (it == adj_.end()) continue;
      for (const Edge& e : it->second) {
        if (e.to == src) continue;
        Cost cand = addc(d, e.cost);
        if (cand == kInfinity) continue;
        Cost ct = cur_dist(e.to);
        if (cand < ct) q.emplace(cand, e.to);
        else if (cand == ct && out.entries.count(e.to)) hops_dirty.insert(e.to);
      }
    }

    // Dirty vertices never settled are unreachable now.
    for (const auto& v : dirty)
      if (!out.entries.count(v)) delta.removed.push_back(v);

    // 4. Phase B — parents + first-hop sets, in distance order so a
    // repaired vertex reads final hop sets from its (strictly closer)
    // tight in-neighbors. Hop changes cascade to tight children even
    // when distances didn't move.
    std::set<QItem> work;
    for (const auto& v : hops_dirty) {
      auto it = out.entries.find(v);
      if (it != out.entries.end()) work.emplace(it->second.dist, v);
    }
    std::set<naming::Address> done;
    while (!work.empty()) {
      auto [d, v] = *work.begin();
      work.erase(work.begin());
      if (!done.insert(v).second) continue;
      auto& ent = out.entries[v];
      std::vector<naming::Address> parents;
      std::vector<naming::Address> hops;
      auto rit = radj_.find(v);
      if (rit != radj_.end()) {
        std::vector<Edge> ins(rit->second);
        std::sort(ins.begin(), ins.end(),
                  [](const Edge& a, const Edge& b) { return a.to < b.to; });
        for (const Edge& ie : ins) {
          if (addc(cur_dist(ie.to), ie.cost) != d) continue;
          parents.push_back(ie.to);
          if (ie.to == src) {
            hops.push_back(v);
          } else {
            auto uit = out.entries.find(ie.to);
            if (uit != out.entries.end())
              hops.insert(hops.end(), uit->second.next_hops.begin(),
                          uit->second.next_hops.end());
          }
        }
      }
      std::sort(hops.begin(), hops.end());
      hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
      std::vector<naming::Address> old_sorted = ent.next_hops;
      std::sort(old_sorted.begin(), old_sorted.end());
      bool hops_changed = hops != old_sorted;
      ent.parents = std::move(parents);
      if (!hops_changed) continue;
      ent.next_hops = std::move(hops);
      auto ait = adj_.find(v);
      if (ait == adj_.end()) continue;
      for (const Edge& e : ait->second) {
        if (e.to == src || done.count(e.to)) continue;
        auto cit = out.entries.find(e.to);
        if (cit == out.entries.end()) continue;
        // Strictly-greater guard also sidesteps zero-cost cycles.
        if (cit->second.dist > d && addc(d, e.cost) == cit->second.dist)
          work.emplace(cit->second.dist, e.to);
      }
    }

    delta.recomputed = done.size();
    delta.changed.assign(done.begin(), done.end());
    return out;
  }

  [[nodiscard]] const std::map<naming::Address, std::vector<Edge>>& adjacency()
      const {
    return adj_;
  }

 private:
  static void upsert_min(std::vector<Edge>& edges, naming::Address to, Cost cost) {
    for (auto& e : edges) {
      if (e.to == to) {
        e.cost = std::min(e.cost, cost);
        return;
      }
    }
    edges.push_back(Edge{to, cost});
  }

  static void upsert_exact(std::vector<Edge>& edges, naming::Address to,
                           Cost cost) {
    for (auto& e : edges) {
      if (e.to == to) {
        e.cost = cost;
        return;
      }
    }
    edges.push_back(Edge{to, cost});
  }

  static void erase_edge(std::map<naming::Address, std::vector<Edge>>& m,
                         naming::Address from, naming::Address to) {
    auto it = m.find(from);
    if (it == m.end()) return;
    auto& edges = it->second;
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [&](const Edge& e) { return e.to == to; }),
                edges.end());
  }

  std::map<naming::Address, std::vector<Edge>> adj_;
  // Reverse adjacency: radj_[v] lists (in-neighbor, cost) as Edge{to=u}.
  std::map<naming::Address, std::vector<Edge>> radj_;
};
}  // namespace ref

static void dijkstra_basic() {
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3}, d{1, 4};
  g.add_edge(a, b, 1);
  g.add_edge(b, a, 1);
  g.add_edge(b, c, 1);
  g.add_edge(c, b, 1);
  g.add_edge(a, d, 1);
  g.add_edge(d, a, 1);
  g.add_edge(d, c, 1);
  g.add_edge(c, d, 1);
  CHECK(g.node_count() == 4);

  auto spf = g.dijkstra(a);
  CHECK(spf.entries.at(b).dist == 1);
  CHECK(spf.entries.at(b).next_hops == std::vector<Address>{b});
  // Two equal-cost paths to c: via b and via d.
  CHECK(spf.entries.at(c).dist == 2);
  std::set<Address> hops(spf.entries.at(c).next_hops.begin(),
                         spf.entries.at(c).next_hops.end());
  CHECK(hops == (std::set<Address>{b, d}));
}

static void dijkstra_prefers_shorter() {
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3};
  g.add_edge(a, b, 10);
  g.add_edge(a, c, 1);
  g.add_edge(c, b, 1);
  auto spf = g.dijkstra(a);
  CHECK(spf.entries.at(b).dist == 2);
  CHECK(spf.entries.at(b).next_hops == std::vector<Address>{c});
}

static void two_step_lookup() {
  relay::ForwardingTable fib;
  Address dest{1, 50}, nh{1, 2};
  fib.set_next_hops(dest, {nh});
  fib.set_neighbor_ports(nh, {0, 1, 2});
  CHECK(fib.entry_count() == 1);

  auto all_up = [](relay::PortIndex) { return true; };
  CHECK(fib.lookup(dest, all_up).value() == 0u);

  // Step 2 is late-bound: kill PoA 0, the very next lookup moves.
  auto first_down = [](relay::PortIndex p) { return p != 0; };
  CHECK(fib.lookup(dest, first_down).value() == 1u);

  auto all_down = [](relay::PortIndex) { return false; };
  CHECK(!fib.lookup(dest, all_down).has_value());
  CHECK(!fib.lookup(Address{9, 9}, all_up).has_value());
}

static void round_robin_poa() {
  relay::ForwardingTable fib;
  Address dest{1, 50}, nh{1, 2};
  fib.set_next_hops(dest, {nh});
  fib.set_neighbor_ports(nh, {0, 1});
  fib.set_poa_policy(relay::PoaPolicy::round_robin);
  auto all_up = [](relay::PortIndex) { return true; };
  auto p1 = fib.lookup(dest, all_up).value();
  auto p2 = fib.lookup(dest, all_up).value();
  auto p3 = fib.lookup(dest, all_up).value();
  CHECK(p1 != p2);
  CHECK(p1 == p3);
}

static void region_aggregation() {
  relay::ForwardingTable fib;
  Address nh{1, 2};
  fib.set_neighbor_ports(nh, {4});
  // One wildcard entry covers the whole foreign region 7.
  fib.set_next_hops(Address{7, 0}, {nh});
  auto all_up = [](relay::PortIndex) { return true; };
  CHECK(fib.lookup(Address{7, 31}, all_up).value() == 4u);
  CHECK(fib.lookup(Address{7, 99}, all_up).value() == 4u);
  CHECK(!fib.lookup(Address{8, 1}, all_up).has_value());
  // An exact entry beats the wildcard.
  Address other{1, 3};
  fib.set_neighbor_ports(other, {9});
  fib.set_next_hops(Address{7, 31}, {other});
  CHECK(fib.lookup(Address{7, 31}, all_up).value() == 9u);
}

static void directory() {
  naming::Directory dir;
  naming::AppName app("web", "1"), app2("db");
  dir.add(app, Address{1, 5});
  dir.add(app2, Address{1, 6});
  CHECK(dir.lookup(app).value() == (Address{1, 5}));
  CHECK(!dir.lookup(naming::AppName("nope")).has_value());
  // Names resolve inside the DIF only; instance is part of the name.
  CHECK(!dir.lookup(naming::AppName("web", "2")).has_value());
  dir.remove_at(Address{1, 5});
  CHECK(!dir.lookup(app).has_value());
  CHECK(dir.lookup(app2).has_value());
  dir.remove(app2);
  CHECK(dir.size() == 0);
}

// --- incremental SPF ---

// dist must match exactly; next-hop/parent *sets* must match (repair
// order may differ from dijkstra's discovery order).
static bool same_result(const routing::SpfResult& a,
                        const routing::SpfResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (const auto& [dest, ea] : a.entries) {
    auto it = b.entries.find(dest);
    if (it == b.entries.end()) return false;
    const auto& eb = it->second;
    if (ea.dist != eb.dist) return false;
    std::set<Address> ha(ea.next_hops.begin(), ea.next_hops.end());
    std::set<Address> hb(eb.next_hops.begin(), eb.next_hops.end());
    if (ha != hb) return false;
  }
  return true;
}

static void add_biedge(routing::Graph& g, Address u, Address v,
                       routing::Cost c) {
  g.add_edge(u, v, c);
  g.add_edge(v, u, c);
}

static void spf_incremental_matches_dijkstra() {
  // Ring with a chord: a-b-c-d-e-a plus b-e.
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3}, d{1, 4}, e{1, 5};
  add_biedge(g, a, b, 1);
  add_biedge(g, b, c, 1);
  add_biedge(g, c, d, 1);
  add_biedge(g, d, e, 1);
  add_biedge(g, e, a, 1);
  add_biedge(g, b, e, 1);
  routing::SpfResult prev = g.dijkstra(a);

  // Worsen a tight edge, improve another, and add a brand-new vertex —
  // one batch, compared against a fresh full run.
  std::vector<routing::EdgeChange> ch;
  g.set_edge(b, c, 5);
  g.set_edge(c, b, 5);
  ch.push_back({b, c, 1, 5});
  ch.push_back({c, b, 1, 5});
  Address f{1, 6};
  g.add_edge(d, f, 1);
  g.add_edge(f, d, 1);
  ch.push_back({d, f, routing::kInfinity, 1});
  ch.push_back({f, d, routing::kInfinity, 1});

  routing::SpfDelta delta;
  routing::SpfResult inc = g.spf_incremental(a, prev, ch, delta);
  CHECK(!delta.skipped);
  CHECK(same_result(inc, g.dijkstra(a)));
  CHECK(delta.recomputed > 0);
}

static void spf_incremental_skips_off_tree_changes() {
  // Square a-b-c-d-a with a costly diagonal b-d that no shortest path
  // from `a` uses: worsening it further must be recognised as a no-op.
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3}, d{1, 4};
  add_biedge(g, a, b, 1);
  add_biedge(g, b, c, 1);
  add_biedge(g, c, d, 1);
  add_biedge(g, d, a, 1);
  add_biedge(g, b, d, 10);
  routing::SpfResult prev = g.dijkstra(a);

  g.set_edge(b, d, 20);
  g.set_edge(d, b, 20);
  routing::SpfDelta delta;
  routing::SpfResult inc = g.spf_incremental(
      a, prev, {{b, d, 10, 20}, {d, b, 10, 20}}, delta);
  CHECK(delta.skipped);
  CHECK(delta.recomputed == 0);
  CHECK(same_result(inc, g.dijkstra(a)));
}

static void spf_incremental_reports_unreachable() {
  // Chain a-b-c; cutting b-c strands c and the delta must say so, so
  // the FIB can drop the route instead of keeping a ghost entry.
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3};
  add_biedge(g, a, b, 1);
  add_biedge(g, b, c, 1);
  routing::SpfResult prev = g.dijkstra(a);

  g.remove_edge(b, c);
  g.remove_edge(c, b);
  routing::SpfDelta delta;
  routing::SpfResult inc = g.spf_incremental(
      a, prev,
      {{b, c, 1, routing::kInfinity}, {c, b, 1, routing::kInfinity}}, delta);
  CHECK(!delta.skipped);
  CHECK(std::find(delta.removed.begin(), delta.removed.end(), c) !=
        delta.removed.end());
  CHECK(inc.entries.find(c) == inc.entries.end());
  CHECK(inc.entries.at(b).dist == 1);
  CHECK(same_result(inc, g.dijkstra(a)));
}


// --- dense graph vs the std::map reference, randomized ---

/// Exact equality: same destinations in the same order, same dist, and
/// next_hops / parents vectors equal element by element.
static bool same_exact(const routing::SpfResult& a, const ref::SpfResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  auto bit = b.entries.begin();
  for (const auto& [dest, ea] : a.entries) {
    if (bit->first != dest) return false;
    const auto& eb = bit->second;
    if (ea.dist != eb.dist || ea.next_hops != eb.next_hops ||
        ea.parents != eb.parents)
      return false;
    ++bit;
  }
  return true;
}

static bool same_delta(const routing::SpfDelta& a, const ref::SpfDelta& b) {
  return a.skipped == b.skipped && a.changed == b.changed &&
         a.removed == b.removed && a.recomputed == b.recomputed;
}

static void dense_graph_matches_map_reference() {
  std::mt19937 rng(20081209);
  const std::vector<std::uint16_t> regions = {1, 2, 5, 9, 40, 300};
  int batches_checked = 0, skipped_batches = 0;
  for (int trial = 0; trial < 4; ++trial) {
    // >= 200 vertices over 6 regions with sparse node ids (wildcard 0
    // and the top id 65535 included).
    std::vector<Address> verts;
    std::set<Address> seen;
    std::uniform_int_distribution<int> node(0, 65535);
    for (std::uint16_t r : regions) {
      for (std::uint16_t n : {0, 65535}) {
        verts.push_back(Address{r, n});
        seen.insert(verts.back());
      }
    }
    while (verts.size() < 220) {
      Address a{regions[rng() % regions.size()],
                static_cast<std::uint16_t>(node(rng))};
      if (seen.insert(a).second) verts.push_back(a);
    }
    std::shuffle(verts.begin(), verts.end(), rng);

    routing::Graph g;
    ref::Graph rg;
    auto pick = [&] { return verts[rng() % verts.size()]; };
    std::uniform_int_distribution<int> cost(1, 3);  // ties on purpose
    // A random spanning chain keeps most of the graph reachable, plus
    // random chords (both directions, independent costs).
    for (std::size_t i = 1; i < verts.size(); ++i) {
      Address u = verts[i - 1], v = verts[i];
      routing::Cost c = static_cast<routing::Cost>(cost(rng));
      g.add_edge(u, v, c);
      rg.add_edge(u, v, c);
      g.add_edge(v, u, c);
      rg.add_edge(v, u, c);
    }
    for (int i = 0; i < 400; ++i) {
      Address u = pick(), v = pick();
      if (u == v) continue;
      routing::Cost c = static_cast<routing::Cost>(cost(rng));
      g.add_edge(u, v, c);
      rg.add_edge(u, v, c);
    }
    CHECK(g.node_count() == rg.node_count());

    Address src = pick();
    routing::SpfResult prev = g.dijkstra(src);
    ref::SpfResult rprev = rg.dijkstra(src);
    CHECK(same_exact(prev, rprev));

    for (int batch = 0; batch < 25; ++batch) {
      // A batch of distinct edges: removals, cost changes, new edges.
      std::vector<routing::EdgeChange> ch;
      std::vector<ref::EdgeChange> rch;
      std::set<std::pair<Address, Address>> touched;
      int n = 1 + static_cast<int>(rng() % 12);
      for (int k = 0; k < n; ++k) {
        Address u = pick(), v = pick();
        if (u == v || !touched.insert({u, v}).second) continue;
        routing::Cost old_c = g.edge_cost(u, v);
        CHECK(old_c == rg.edge_cost(u, v));
        routing::Cost new_c = rng() % 3 == 0
                                  ? routing::kInfinity
                                  : static_cast<routing::Cost>(cost(rng));
        if (new_c == old_c) continue;
        if (new_c == routing::kInfinity) {
          g.remove_edge(u, v);
          rg.remove_edge(u, v);
        } else {
          g.set_edge(u, v, new_c);
          rg.set_edge(u, v, new_c);
        }
        ch.push_back({u, v, old_c, new_c});
        rch.push_back({u, v, old_c, new_c});
      }
      routing::SpfDelta delta;
      ref::SpfDelta rdelta;
      routing::SpfResult next = g.spf_incremental(src, prev, ch, delta);
      ref::SpfResult rnext = rg.spf_incremental(src, rprev, rch, rdelta);
      CHECK(same_exact(next, rnext));
      CHECK(same_delta(delta, rdelta));
      // And repair agrees with a fresh full run on both sides.
      CHECK(same_exact(g.dijkstra(src), rg.dijkstra(src)));
      CHECK(same_result(next, g.dijkstra(src)));
      skipped_batches += delta.skipped ? 1 : 0;
      ++batches_checked;
      prev = std::move(next);
      rprev = std::move(rnext);
    }
  }
  CHECK(batches_checked == 100);
  CHECK(skipped_batches < batches_checked);  // repairs actually ran
}

int main() {
  dijkstra_basic();
  dijkstra_prefers_shorter();
  two_step_lookup();
  round_robin_poa();
  region_aggregation();
  directory();
  spf_incremental_matches_dijkstra();
  spf_incremental_skips_off_tree_changes();
  spf_incremental_reports_unreachable();
  dense_graph_matches_map_reference();
  return TEST_MAIN_RESULT();
}
