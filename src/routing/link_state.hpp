// link_state.hpp — the routing task of one IPC process: the link-state
// database, shortest paths over it, and the FIB install. Spreading the
// records (flood or delta sync) is the IPCP's job; this only learns them.
//
// The SPF driver is fixed when the component is built: incremental
// exactly in a delta-sync DIF. Full: each run builds the graph, runs
// Dijkstra, installs the whole FIB and keeps nothing. Incremental: the
// graph and the last tree are retained (about 3x the LSDB), and a run
// repairs only what the learned records moved, or skips when nothing on
// a shortest path did. Under aggregate_regions the FIB holds one entry
// per foreign region in either driver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "dif/config.hpp"
#include "naming/addr_map.hpp"
#include "relay/forwarding.hpp"
#include "routing/graph.hpp"
#include "sim/scheduler.hpp"

namespace rina::routing {

class LinkState {
 public:
  struct Record {
    std::uint64_t seq = 0;
    std::vector<naming::Address> neighbors;
  };
  /// Counters (spf_runs, spf_skipped, ...) go to the owner's `stats`.
  LinkState(const dif::DifConfig& cfg, Stats& stats)
      : incremental_(cfg.rib_delta_sync),
        aggregate_(cfg.aggregate_regions),
        stats_(stats) {}

  [[nodiscard]] const naming::AddrMap<Record>& lsdb() const { return lsdb_; }
  /// Sequence number of `origin`'s record, 0 if none is held.
  [[nodiscard]] std::uint64_t seq_of(naming::Address origin) const {
    auto it = lsdb_.find(origin);
    return it == lsdb_.end() ? 0 : it->second.seq;
  }
  /// Would learn() take (origin, seq)? Needs no neighbor list.
  [[nodiscard]] bool is_newer(naming::Address origin, std::uint64_t seq) const {
    auto it = lsdb_.find(origin);
    return it == lsdb_.end() || seq > it->second.seq;
  }

  /// Install `origin`'s record if it is newer than the one held. True =
  /// installed; the caller disseminates it and schedules a run.
  bool learn(naming::Address origin, std::uint64_t seq,
             std::vector<naming::Address> neighbors) {
    if (!is_newer(origin, seq)) return false;
    lsdb_[origin] = Record{seq, std::move(neighbors)};
    if (seeded_) moved_.push_back(origin);
    return true;
  }

  /// Hold this member's own record under its next sequence number and
  /// return it. Routes read my adjacency from run(), not from here.
  std::uint64_t originate(naming::Address self,
                          std::vector<naming::Address> neighbors) {
    lsdb_[self] = Record{++own_seq_, std::move(neighbors)};
    return own_seq_;
  }

  /// Arm the SPF debounce unless it is already armed.
  void schedule(sim::Scheduler& sched, sim::Scheduler::Fn fire) {
    if (!timer_.armed()) timer_ = sched.schedule_after(kDebounce, std::move(fire));
  }
  [[nodiscard]] bool pending() const { return timer_.armed(); }

  /// Recompute the routes of `self`, whose live neighbors are `mine`
  /// (ascending), into `fib`. Neighbor ports are the caller's.
  void run(naming::Address self, const std::vector<naming::Address>& mine,
           relay::ForwardingTable& fib) {
    if (!incremental_ || !seeded_) {
      Graph g = build_graph(self, mine);
      SpfResult tree = g.dijkstra(self);
      install(self, tree, nullptr, fib);
      stats_.inc("spf_runs");
      if (!incremental_) {
        // A full run re-derives every destination: the comparable work
        // unit incremental repair reports per touched vertex.
        stats_.inc("spf_vertices_recomputed", tree.entries.size());
        return;
      }
      stats_.inc("spf_full_runs");
      graph_ = std::move(g);
      tree_ = std::move(tree);
      seeded_ = true;
      return;
    }
    // Only my adjacency and the origins learned since can have moved an
    // edge. Each moved edge is one transition from its cost under tree_:
    // an edge that came and went within one debounce is no change (two
    // transitions would pass for a new edge and route over it).
    std::vector<EdgeChange> changes;
    diff(self, mine, changes);
    std::sort(moved_.begin(), moved_.end());
    moved_.erase(std::unique(moved_.begin(), moved_.end()), moved_.end());
    for (auto origin : moved_)
      if (origin != self) diff(origin, lsdb_.find(origin)->second.neighbors, changes);
    moved_.clear();
    SpfDelta delta;
    if (changes.empty())
      delta.skipped = true;
    else
      tree_ = graph_.spf_incremental(self, std::move(tree_), changes, delta);
    if (delta.skipped) {
      stats_.inc("spf_skipped");
      return;
    }
    stats_.inc("spf_runs");
    stats_.inc("spf_incremental_runs");
    stats_.inc("spf_vertices_recomputed", delta.recomputed);
    install(self, tree_, &delta, fib);
  }

  /// Forget the retained graph and tree (the member left the DIF). The
  /// LSDB and the own sequence number survive a re-join.
  void reset() {
    seeded_ = false;
    moved_.clear();
    graph_.clear();
    tree_ = SpfResult{};
  }

 private:
  static constexpr SimTime kDebounce = SimTime::from_ms(8);

  /// The one graph build: my live adjacency plus every other origin's
  /// record (mine in the LSDB is what I last told the others).
  [[nodiscard]] Graph build_graph(naming::Address self,
                                  const std::vector<naming::Address>& mine) const {
    Graph g;
    for (auto n : mine) g.add_edge(self, n, 1);
    for (const auto& [origin, rec] : lsdb_) {
      if (origin == self) continue;
      for (auto n : rec.neighbors) g.add_edge(origin, n, 1);
    }
    return g;
  }

  /// Bring `origin`'s out-edges in graph_ to `now`, noting each move.
  void diff(naming::Address origin, const std::vector<naming::Address>& now,
            std::vector<EdgeChange>& changes) {
    std::vector<Graph::Edge> was;
    if (auto it = graph_.adjacency().find(origin); it != graph_.adjacency().end())
      was = it->second;
    for (auto n : now) {
      Cost old = graph_.edge_cost(origin, n);
      if (old == 1) continue;
      graph_.set_edge(origin, n, 1);
      changes.push_back(EdgeChange{origin, n, old, 1});
    }
    for (const Graph::Edge& e : was) {
      if (std::find(now.begin(), now.end(), e.to) != now.end()) continue;
      graph_.remove_edge(origin, e.to);
      changes.push_back(EdgeChange{origin, e.to, e.cost, kInfinity});
    }
  }

  /// The one FIB install. A repair (`delta`) patches only the moved
  /// destinations; aggregation re-derives its wildcards from the tree.
  void install(naming::Address self, const SpfResult& tree,
               const SpfDelta* delta, relay::ForwardingTable& fib) const {
    if (delta != nullptr && !aggregate_) {
      for (auto dest : delta->removed) fib.remove_route(dest);
      for (auto dest : delta->changed)
        fib.set_next_hops(dest, tree.entries.find(dest)->second.next_hops);
      return;
    }
    fib.clear_routes();
    // Topological aggregation: full entries for my region, one wildcard
    // entry per foreign region (routes grow with regions, not nodes).
    std::map<std::uint16_t, const SpfResult::Entry*> best_foreign;
    for (const auto& [dest, entry] : tree.entries) {
      if (!aggregate_ || dest.region == self.region) {
        fib.set_next_hops(dest, entry.next_hops);
        continue;
      }
      auto [it, fresh] = best_foreign.try_emplace(dest.region, &entry);
      if (!fresh && entry.dist < it->second->dist) it->second = &entry;
    }
    for (const auto& [region, best] : best_foreign)
      fib.set_next_hops(naming::Address{region, 0}, best->next_hops);
  }

  const bool incremental_;
  const bool aggregate_;
  Stats& stats_;
  naming::AddrMap<Record> lsdb_;
  std::uint64_t own_seq_ = 0;
  sim::Timer timer_;
  // Incremental driver only: the graph as tree_ was last brought up to
  // date with, and the origins learned since.
  bool seeded_ = false;
  Graph graph_;
  SpfResult tree_;
  std::vector<naming::Address> moved_;
};

}  // namespace rina::routing
