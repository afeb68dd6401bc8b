// codec.hpp — the management-plane encodings an IPC process's components
// share (internal to src/ipcp/): RIEP object classes and messages, the
// address and application-name codecs, and the snapshot block writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "naming/names.hpp"
#include "rib/riep.hpp"

namespace rina::ipcp {

// Management object classes: one RIEP dispatch table instead of a zoo of
// protocols.
inline constexpr const char* kClsHello = "Hello";
inline constexpr const char* kClsKeepAlive = "KeepAlive";
inline constexpr const char* kClsJoinReq = "JoinReq";
inline constexpr const char* kClsJoinChallenge = "JoinChallenge";
inline constexpr const char* kClsJoinResp = "JoinResp";
inline constexpr const char* kClsJoinAccept = "JoinAccept";
inline constexpr const char* kClsJoinReject = "JoinReject";
inline constexpr const char* kClsBye = "Bye";
inline constexpr const char* kClsLsu = "LSU";
inline constexpr const char* kClsLsdbSync = "LsdbSync";  // snapshot to a new peer
inline constexpr const char* kClsDirUpd = "DirUpd";
inline constexpr const char* kClsDirSync = "DirSync";
inline constexpr const char* kClsDirEntry = "DirEntry";  // replicated rib object
inline constexpr const char* kClsDirRead = "DirRead";          // query up the chain
inline constexpr const char* kClsDirReadReply = "DirReadReply";
inline constexpr const char* kClsDirInval = "DirInval";        // cache invalidation
inline constexpr const char* kClsRibFinger = "RibFinger";      // anti-entropy opener
inline constexpr const char* kClsRibDigest = "RibDigest";      // anti-entropy fallback
inline constexpr const char* kClsRibDelta = "RibDelta";        // versioned deltas
inline constexpr const char* kClsRibPull = "RibPull";          // gap / name pull
inline constexpr const char* kClsFlowReq = "FlowReq";
inline constexpr const char* kClsFlowResp = "FlowResp";
inline constexpr const char* kClsFlowRelease = "FlowRelease";
inline constexpr const char* kClsFlowReleaseAck = "FlowReleaseAck";

/// A management message on object `name` of class `cls`.
inline rib::RiepMessage riep_msg(rib::RiepOp op, std::string name, const char* cls,
                                 Bytes value = {}) {
  rib::RiepMessage m;
  m.op = op;
  m.obj_name = std::move(name);
  m.obj_class = cls;
  m.value = std::move(value);
  return m;
}

// Keep management snapshots comfortably inside the PCI's u16 payload
// length (there is no fragmentation); overflow is truncated + counted.
inline constexpr std::size_t kSnapshotBudget = 56000;

inline void put_addr(BufWriter& w, naming::Address a) { w.put_u32(a.key()); }

inline naming::Address get_addr(BufReader& r) {
  std::uint32_t k = r.get_u32();
  return naming::Address{static_cast<std::uint16_t>(k >> 16),
                         static_cast<std::uint16_t>(k & 0xFFFF)};
}

inline void put_app(BufWriter& w, const naming::AppName& a) {
  w.put_lpstring(a.process);
  w.put_lpstring(a.instance);
}

inline naming::AppName get_app(BufReader& r) {
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

}  // namespace rina::ipcp
