// config.hpp — everything that makes one DIF *this* DIF: its name, the
// service classes it offers, its admission (enrollment) policy, liveness
// probing, scheduling discipline and address aggregation. Two DIFs with
// different configs are different networks even over the same wires.
#pragma once

#include <string>
#include <vector>

#include "flow/qos.hpp"
#include "naming/names.hpp"
#include "relay/forwarding.hpp"
#include "sim/time.hpp"

namespace rina::dif {

struct DifConfig {
  naming::DifName name;

  /// Service classes on offer. Empty = the default pair (reliable id 0,
  /// unreliable id 1), installed at DIF build time.
  std::vector<flow::QosCube> cubes;

  /// Admission policy: "none", "password", "psk-challenge".
  std::string auth_policy = "none";
  std::string auth_secret;

  /// Liveness probing of adjacencies (needed when the lower level cannot
  /// signal carrier loss, i.e. for overlay DIFs).
  bool keepalive_enabled = false;
  SimTime keepalive_interval = SimTime::from_ms(100);
  int keepalive_misses = 3;

  /// RMT egress discipline. Queues are bounded per QoS class (one shared
  /// class under fifo); a class queue deeper than rmt_ecn_threshold sets
  /// the ECN bit on the data PDUs it admits — the in-DIF congestion
  /// signal the aimd_ecn DTCP policy reacts to. 0 disables marking.
  relay::RmtSched rmt_sched = relay::RmtSched::fifo;
  std::size_t rmt_queue_pdus = 512;
  std::size_t rmt_ecn_threshold = 0;

  /// RMT content-store policy: when enabled, a member relaying content
  /// PDUs (src/content/protocol.hpp) through this DIF keeps an ARC cache
  /// of the objects it sees. Interests that hit are answered from the
  /// relay — the PDU never continues toward the origin — and data PDUs
  /// passing through are inserted opportunistically. Pure per-DIF
  /// policy: nothing above or below this DIF can tell, which is the
  /// paper's point about specializing a DIF for a job (here: CDN).
  bool rmt_content_store_enabled = false;
  std::size_t rmt_content_store_objects = 1024;  // live-entry capacity
  SimTime rmt_content_store_ttl{};               // 0 = no expiry

  /// Per-flow application receive queue depth (SDUs). The flow allocator
  /// delivers into this bounded queue and the app pulls with Flow::read;
  /// overflow is dropped and counted (app_rx_dropped) — the reader, not
  /// the network, is the one falling behind.
  std::size_t app_rx_queue_sdus = 64;

  /// Route on region prefixes instead of full addresses (one FIB entry
  /// per foreign region).
  bool aggregate_regions = false;

  /// --- Control plane at scale (all default off: flat dissemination) ---

  /// Hierarchical directory resolution. Registrations go *only* to the
  /// member's region anchor (address {region, dir_anchor_node}) and the
  /// DIF root (dir_root); everyone else resolves on miss by querying up
  /// (member -> anchor -> root), caching answers with a TTL, and
  /// honoring unregister/mobility invalidation floods. Replaces the
  /// flat mode's full directory flood.
  bool dir_hierarchical = false;
  naming::Address dir_root{};       // null = the anchor is the top
  std::uint16_t dir_anchor_node = 1;  // anchor = {my region, this node}
  SimTime dir_cache_ttl = SimTime::from_ms(2000);
  std::size_t dir_cache_entries = 4096;

  /// Versioned delta RIB sync (src/rib/sync.hpp): LSU/directory
  /// dissemination becomes sequence-numbered per-origin deltas with
  /// gap pulls and periodic anti-entropy digest rounds; a peer too far
  /// behind the bounded delta log gets a full scoped snapshot.
  bool rib_delta_sync = false;
  SimTime rib_sync_interval = SimTime::from_ms(200);
  std::size_t rib_log_entries = 64;    // per-origin delta log depth
  std::size_t rib_digest_budget = 64;  // (name, version) pairs per round

  /// No effect: SPF is incremental exactly when rib_delta_sync is on
  /// (routing/link_state.hpp). Kept only because the benchmark's
  /// churn_ctl workload (perfbench/src/churn_ctl.cpp) still assigns it;
  /// it goes with the next change to the benchmark.
  bool incremental_spf = false;
};

inline std::vector<flow::QosCube> default_cubes() {
  flow::QosCube rel;
  rel.id = 0;
  rel.name = "reliable";
  rel.efcp_policy = "reliable";
  rel.reliable = true;
  rel.in_order = true;
  flow::QosCube unrel;
  unrel.id = 1;
  unrel.name = "unreliable";
  unrel.efcp_policy = "unreliable";
  unrel.reliable = false;
  unrel.in_order = false;
  return {rel, unrel};
}

}  // namespace rina::dif
