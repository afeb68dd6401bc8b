// test_rib_sync — the versioned-delta RIB sync engine (src/rib/sync.hpp):
// wire codecs, per-origin delta logs with gap pulls, snapshot fallback
// when a gap fell off the bounded log, digest windows, and anti-entropy
// convergence of two replicas under seeded delta loss. Plus the Rib
// version contract the engine leans on (create=1, every mutation bumps,
// versioned apply never regresses). Ends with an end-to-end check that a
// delta-sync DIF still converges routing and delivers data.
#include "rib/sync.hpp"

#include <random>
#include <string>
#include <vector>

#include "node/network.hpp"
#include "test_util.hpp"

using namespace rina;
using naming::Address;
using rib::Delta;
using rib::DeltaEntry;
using rib::Digest;
using rib::OriginLog;
using rib::PullRequest;
using rib::Rib;

namespace {

DeltaEntry entry(std::uint64_t seq, const std::string& name, std::uint64_t ver,
                 const std::string& val) {
  return DeltaEntry{seq, name, "DirEntry", ver, to_bytes(val)};
}

/// Apply a repair/list of entries to a replica the way the Ipcp does.
void apply_entries(Rib& rib, const std::vector<DeltaEntry>& es) {
  for (const auto& e : es)
    (void)rib.upsert_versioned(e.name, e.obj_class, e.value, e.version);
}

/// One full anti-entropy reconcile step from `from` into `to` (pull side
/// only, mirroring what a digest round plus the resulting name pull do).
/// Returns the number of objects pulled.
std::size_t reconcile_round(const Rib& from, Rib& to, std::string& cursor,
                            std::size_t budget) {
  Digest d = rib::build_digest(from, cursor, budget);
  cursor = rib::next_cursor(d);
  rib::DigestDiff diff = rib::diff_digest(to, d);
  std::size_t pulled = 0;
  for (const std::string& n : diff.want) {
    const Rib::Object* o = from.find(n);
    if (o == nullptr) continue;
    (void)to.upsert_versioned(n, o->obj_class, o->value, o->version);
    ++pulled;
  }
  return pulled;
}

bool replicas_equal(const Rib& a, const Rib& b) {
  for (const auto& [name, obj] : a.objects()) {
    if (!rib::replicated_scope(name)) continue;
    const Rib::Object* o = b.find(name);
    if (o == nullptr || o->version != obj.version) return false;
    if (o->value != obj.value) return false;
  }
  for (const auto& [name, obj] : b.objects()) {
    (void)obj;
    if (rib::replicated_scope(name) && a.find(name) == nullptr) return false;
  }
  return true;
}

}  // namespace

static void rib_version_contract() {
  Rib rib;
  CHECK(rib.create("/dif/directory/a", "DirEntry", to_bytes("x")).ok());
  CHECK(rib.version_of("/dif/directory/a") == 1);  // create = 1
  CHECK(rib.write("/dif/directory/a", to_bytes("y")).ok());
  CHECK(rib.version_of("/dif/directory/a") == 2);  // every mutation bumps
  rib.upsert("/dif/directory/a", "DirEntry", to_bytes("z"));
  CHECK(rib.version_of("/dif/directory/a") == 3);
  rib.upsert("/dif/directory/b", "DirEntry", to_bytes("n"));
  CHECK(rib.version_of("/dif/directory/b") == 1);  // upsert-as-create = 1
  CHECK(rib.version_of("/nope") == 0);             // absent = 0
}

static void versioned_apply_never_regresses() {
  Rib rib;
  // Out-of-order arrival: version 3 lands first, then 2, then 3 again.
  CHECK(rib.upsert_versioned("/dif/directory/a", "DirEntry", to_bytes("v3"), 3));
  CHECK(!rib.upsert_versioned("/dif/directory/a", "DirEntry", to_bytes("v2"), 2));
  CHECK(!rib.upsert_versioned("/dif/directory/a", "DirEntry", to_bytes("v3b"), 3));
  CHECK(to_string(BytesView{rib.find("/dif/directory/a")->value}) == "v3");
  CHECK(rib.upsert_versioned("/dif/directory/a", "DirEntry", to_bytes("v4"), 4));
  CHECK(rib.version_of("/dif/directory/a") == 4);
}

static void codecs_roundtrip() {
  Delta d;
  d.origin = Address{3, 7};
  d.entries.push_back(entry(5, "/dif/directory/app", 2, "addr"));
  d.entries.push_back(entry(0, "/routing/lsu/1.4", 9, "lsu-bytes"));
  auto rd = Delta::decode(BytesView{d.encode()});
  CHECK(rd.ok());
  CHECK(rd.value().origin == (Address{3, 7}));
  CHECK(rd.value().entries.size() == 2);
  CHECK(rd.value().entries[0].seq == 5);
  CHECK(rd.value().entries[1].version == 9);
  CHECK(to_string(BytesView{rd.value().entries[0].value}) == "addr");

  Digest g;
  g.after = "/dif/directory/a";
  g.exhausted = false;
  g.entries.push_back(rib::DigestEntry{"/dif/directory/b", 4});
  auto rg = Digest::decode(BytesView{g.encode()});
  CHECK(rg.ok());
  CHECK(rg.value().after == "/dif/directory/a");
  CHECK(!rg.value().exhausted);
  CHECK(rg.value().entries.at(0).version == 4);

  PullRequest ps;
  ps.kind = PullRequest::Kind::seq_range;
  ps.origin = Address{1, 2};
  ps.from = 3;
  ps.to = 9;
  auto rs = PullRequest::decode(BytesView{ps.encode()});
  CHECK(rs.ok());
  CHECK(rs.value().kind == PullRequest::Kind::seq_range);
  CHECK(rs.value().from == 3 && rs.value().to == 9);

  PullRequest pn;
  pn.kind = PullRequest::Kind::names;
  pn.names = {"/dif/directory/x", "/routing/lsu/1.2"};
  auto rn = PullRequest::decode(BytesView{pn.encode()});
  CHECK(rn.ok());
  CHECK(rn.value().names.size() == 2);

  // Truncated wire must be a typed decode error, not garbage.
  Bytes wire = d.encode();
  wire.resize(wire.size() - 3);
  CHECK(!Delta::decode(BytesView{wire}).ok());
}

static void origin_log_gap_and_eviction() {
  OriginLog log(4);
  for (std::uint64_t s = 1; s <= 3; ++s)
    log.record(entry(s, "/dif/directory/a", s, "v"));
  CHECK(log.high() == 3);
  CHECK(log.can_serve(1, 3));
  CHECK(log.collect(2, 3).size() == 2);

  // Out-of-order hole: 5 recorded before 4 — the range spanning the hole
  // is not servable, the hole itself is pullable once filled.
  log.record(entry(5, "/dif/directory/a", 5, "v"));
  CHECK(log.high() == 5);
  CHECK(!log.can_serve(3, 5));
  log.record(entry(4, "/dif/directory/a", 4, "v"));
  CHECK(log.can_serve(2, 5));

  // Capacity 4: recording 6 evicts the oldest (seq 2).
  log.record(entry(6, "/dif/directory/a", 6, "v"));
  CHECK(!log.has(2));
  CHECK(log.floor() == 3);
  CHECK(!log.can_serve(2, 6));  // fell off the log -> snapshot fallback
  CHECK(log.can_serve(3, 6));
}

static void delta_reencode_is_identity() {
  // Relays re-flood a received delta's bytes unchanged when every entry
  // is fresh, which is only sound if encode(decode(x)) == x for any valid
  // x: multi-entry deltas with mixed seqs, empty and binary values,
  // names of every length class.
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    Delta d;
    d.origin = Address{static_cast<std::uint16_t>(rng() % 40),
                       static_cast<std::uint16_t>(rng() % 65536)};
    std::size_t n = 1 + rng() % 9;
    for (std::size_t i = 0; i < n; ++i) {
      DeltaEntry e;
      e.seq = rng() % 4 == 0 ? 0 : 1 + rng() % 100000;
      e.name = "/routing/lsu/" + std::string(rng() % 40, 'n');
      e.obj_class = i % 2 == 0 ? "LSU" : "DirEntry";
      e.version = rng();
      e.value.resize(rng() % 70);
      for (auto& b : e.value) b = static_cast<std::uint8_t>(rng());
      d.entries.push_back(std::move(e));
    }
    Bytes wire = d.encode();
    auto back = Delta::decode(BytesView{wire});
    CHECK(back.ok());
    CHECK(back.value().entries.size() == n);
    CHECK(back.value().encode() == wire);
  }
}

static void origin_log_overwrite_and_compaction() {
  // Re-recording a retained seq overwrites it in place: no second entry.
  OriginLog log(4);
  log.record(entry(1, "/dif/directory/a", 1, "first"));
  log.record(entry(2, "/dif/directory/a", 2, "v"));
  log.record(entry(1, "/dif/directory/a", 1, "second"));
  CHECK(log.size() == 2);
  CHECK(log.high() == 2);
  auto one = log.collect(1, 1);
  CHECK(one.size() == 1);
  CHECK(to_string(BytesView{one.at(0).value}) == "second");

  // seq 0 is never logged; an out-of-order seq inserts in place.
  log.record(entry(0, "/dif/directory/a", 1, "repair"));
  CHECK(log.size() == 2);
  log.record(entry(5, "/dif/directory/a", 5, "v"));
  log.record(entry(3, "/dif/directory/a", 3, "v"));
  log.record(entry(4, "/dif/directory/a", 4, "v"));  // full: evicts 1
  CHECK(log.size() == 4);
  CHECK(!log.has(1));
  CHECK(log.floor() == 2);
  CHECK(log.can_serve(2, 5));

  // A seq older than everything retained, arriving at a full log, is
  // recorded and immediately evicted as the oldest.
  log.record(entry(1, "/dif/directory/a", 1, "late"));
  CHECK(log.size() == 4);
  CHECK(!log.has(1));
  CHECK(log.floor() == 2);

  // A long in-order run keeps exactly the last `cap` entries, in order,
  // across many evictions and front compactions.
  OriginLog run(4);
  for (std::uint64_t s = 1; s <= 1000; ++s)
    run.record(entry(s, "/dif/directory/a", s, std::to_string(s)));
  CHECK(run.size() == 4);
  CHECK(run.floor() == 997);
  CHECK(!run.has(996));
  CHECK(run.can_serve(997, 1000));
  auto tail = run.collect(1, 1000);
  CHECK(tail.size() == 4);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    CHECK(tail[i].seq == 997 + i);
    CHECK(to_string(BytesView{tail[i].value}) == std::to_string(997 + i));
  }
}

static void snapshot_fallback_covers_lost_history() {
  // Origin made 20 mutations; the replica saw none and the log only
  // holds the last 4 — a seq pull cannot be served, the snapshot can.
  Rib origin;
  OriginLog log(4);
  for (std::uint64_t s = 1; s <= 20; ++s) {
    std::string name = "/dif/directory/app" + std::to_string(s % 5);
    std::uint64_t ver = origin.version_of(name) + 1;
    Bytes val = to_bytes("v" + std::to_string(s));
    (void)origin.upsert_versioned(name, "DirEntry", val, ver);
    log.record(DeltaEntry{s, name, "DirEntry", ver, val});
  }
  CHECK(!log.can_serve(1, 20));
  Rib replica;
  Delta snap = rib::build_snapshot(origin, 4096);
  CHECK(snap.entries.size() == 5);  // one repair entry per live object
  for (const auto& e : snap.entries) CHECK(e.seq == 0);
  apply_entries(replica, snap.entries);
  CHECK(replicas_equal(origin, replica));
}

static void digest_exchange_minimal_repair() {
  Rib a, b;
  (void)a.upsert_versioned("/dif/directory/x", "DirEntry", to_bytes("ax"), 3);
  (void)a.upsert_versioned("/dif/directory/y", "DirEntry", to_bytes("ay"), 1);
  (void)b.upsert_versioned("/dif/directory/x", "DirEntry", to_bytes("bx"), 2);
  (void)b.upsert_versioned("/dif/directory/z", "DirEntry", to_bytes("bz"), 5);
  (void)b.upsert_versioned("/local/private", "Scratch", to_bytes("no"), 9);

  // b receives a's full digest: wants x (a newer) and y (unknown),
  // pushes z (a lacks it). The private name never appears.
  Digest d = rib::build_digest(a, "", 64);
  CHECK(d.exhausted);
  CHECK(d.entries.size() == 2);
  rib::DigestDiff diff = rib::diff_digest(b, d);
  CHECK(diff.want == (std::vector<std::string>{"/dif/directory/x",
                                               "/dif/directory/y"}));
  CHECK(diff.push == (std::vector<std::string>{"/dif/directory/z"}));
}

static void fingerprint_matches_iff_windows_equal() {
  Rib a, b;
  (void)a.upsert_versioned("/dif/directory/x", "DirEntry", to_bytes("v"), 3);
  (void)a.upsert_versioned("/dif/directory/y", "DirEntry", to_bytes("w"), 1);
  (void)b.upsert_versioned("/dif/directory/x", "DirEntry", to_bytes("v"), 3);
  (void)b.upsert_versioned("/dif/directory/y", "DirEntry", to_bytes("w"), 1);

  // Converged ribs build identical windows: the O(1) opener matches and
  // the round never escalates to a full digest.
  Digest da = rib::build_digest(a, "", 64);
  Digest db = rib::build_digest(b, "", 64);
  CHECK(rib::digest_fingerprint(da) == rib::digest_fingerprint(db));

  // A lone version bump must flip the hash.
  (void)b.upsert_versioned("/dif/directory/y", "DirEntry", to_bytes("w2"), 2);
  Digest db2 = rib::build_digest(b, "", 64);
  CHECK(rib::digest_fingerprint(da) != rib::digest_fingerprint(db2));

  // And so must an extra name the peer has never seen.
  (void)a.upsert_versioned("/dif/directory/z", "DirEntry", to_bytes("n"), 1);
  Digest da2 = rib::build_digest(a, "", 64);
  CHECK(rib::digest_fingerprint(da2) != rib::digest_fingerprint(db2));

  // Wire roundtrip of the opener itself.
  rib::Fingerprint fp;
  fp.after = "/dif/directory/x";
  fp.hash = rib::digest_fingerprint(da2);
  auto back = rib::Fingerprint::decode(BytesView{fp.encode()});
  CHECK(back.ok());
  CHECK(back.value().after == fp.after);
  CHECK(back.value().hash == fp.hash);
}

static void anti_entropy_converges_under_loss() {
  // The origin replica makes 60 scoped mutations; a lossy channel drops
  // a seeded subset of the live deltas. Windowed anti-entropy rounds
  // (budget 8, so one sweep is several rounds) must reconcile the rest.
  Rib origin, replica;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::uint64_t s = 1; s <= 60; ++s) {
    std::string name = "/dif/directory/app" + std::to_string(s % 17);
    std::uint64_t ver = origin.version_of(name) + 1;
    Bytes val = to_bytes("v" + std::to_string(s));
    (void)origin.upsert_versioned(name, "DirEntry", val, ver);
    if (next() % 3 != 0)  // ~1/3 of live deltas lost
      (void)replica.upsert_versioned(name, "DirEntry", val, ver);
  }
  CHECK(!replicas_equal(origin, replica));

  std::string cursor;
  int rounds = 0;
  std::size_t pulled = 0;
  // Two full sweeps are ample; convergence must come well before.
  for (; rounds < 2 * (17 / 8 + 2) && !replicas_equal(origin, replica); ++rounds)
    pulled += reconcile_round(origin, replica, cursor, 8);
  CHECK(replicas_equal(origin, replica));
  // Proportional to difference: far fewer pulls than mutations.
  CHECK(pulled <= 17);
  CHECK(rounds <= 17 / 8 + 2);  // one sweep (plus wraparound slack)
}

static void tombstones_replicate() {
  // Deletion is a class-specific tombstone value at a higher version —
  // the name stays in the digest so a lagging replica pulls the death.
  Rib a, b;
  const std::string live = std::string(1, '\x01') + "live";
  const std::string dead = std::string(1, '\x02') + "dead";
  (void)a.upsert_versioned("/dif/directory/gone", "DirEntry", to_bytes(live), 1);
  (void)b.upsert_versioned("/dif/directory/gone", "DirEntry", to_bytes(live), 1);
  (void)a.upsert_versioned("/dif/directory/gone", "DirEntry", to_bytes(dead), 2);
  std::string cursor;
  (void)reconcile_round(a, b, cursor, 64);
  CHECK(b.version_of("/dif/directory/gone") == 2);
  CHECK(to_string(BytesView{b.find("/dif/directory/gone")->value}) == dead);
}

static void delta_sync_dif_end_to_end() {
  // A DIF running versioned delta sync instead of full-value floods:
  // registrations and LSUs still converge, flows open, reroute works.
  node::Network net(97);
  net.add_link("a", "r1");
  net.add_link("r1", "b");
  net.add_link("a", "r2");
  net.add_link("r2", "b");
  node::DifSpec s;
  s.cfg.name = naming::DifName{"dsync"};
  s.cfg.rib_delta_sync = true;
  s.cfg.rib_sync_interval = SimTime::from_ms(50);
  s.members = {"a", "r1", "r2", "b"};
  CHECK(net.build_link_dif(s).ok());

  int got = 0;
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"dsync"},
                          [&](flow::Flow f) {
                            f.on_readable([&got](flow::Flow& fl) {
                              while (fl.read()) ++got;
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(200));

  // The registration traveled as a delta, not a DirUpd flood.
  auto* a = net.node("a").ipcp(naming::DifName{"dsync"});
  CHECK(a->directory().lookup(naming::AppName("srv")).has_value());
  CHECK(a->stats().get("deltas_received") > 0);

  flow::Flow f = net.node("a").allocate_flow(naming::AppName("cli"),
                                             naming::AppName("srv"),
                                             flow::QosSpec::reliable_default());
  CHECK(net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(5)));
  CHECK(f.is_open());
  CHECK(f.write(BytesView{to_bytes("one")}).ok());
  net.run_for(SimTime::from_ms(200));
  CHECK(got == 1);

  // Kill one path: LSU deltas + anti-entropy must reconverge routing.
  CHECK(net.set_link_state("a", "r1", false).ok());
  net.run_for(SimTime::from_ms(500));
  CHECK(f.write(BytesView{to_bytes("two")}).ok());
  net.run_for(SimTime::from_sec(1));
  CHECK(got == 2);
}

int main() {
  rib_version_contract();
  versioned_apply_never_regresses();
  codecs_roundtrip();
  origin_log_gap_and_eviction();
  delta_reencode_is_identity();
  origin_log_overwrite_and_compaction();
  snapshot_fallback_covers_lost_history();
  digest_exchange_minimal_repair();
  fingerprint_matches_iff_windows_equal();
  anti_entropy_converges_under_loss();
  tombstones_replicate();
  delta_sync_dif_end_to_end();
  return TEST_MAIN_RESULT();
}
