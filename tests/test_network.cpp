// test_network — end-to-end through the façade: build a DIF over wires,
// register by name, allocate a flow, move data; relay through a middle
// system; reject an enrollment with bad credentials; overlay DIFs.
#include "node/network.hpp"

#include <functional>
#include <memory>
#include <optional>

#include "test_util.hpp"

using namespace rina;
using node::Network;

namespace {

node::DifSpec spec(const std::string& name, std::vector<std::string> members) {
  node::DifSpec s;
  s.cfg.name = naming::DifName{name};
  s.members = std::move(members);
  return s;
}

flow::Flow open_flow(Network& net, const std::string& from,
                     const std::string& lapp, const std::string& rapp) {
  flow::Flow f = net.node(from).allocate_flow(naming::AppName(lapp),
                                              naming::AppName(rapp),
                                              flow::QosSpec::reliable_default());
  bool done = net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(10));
  CHECK(done);
  CHECK(f.is_open());
  return f;
}

/// Register a counting sink app: every accepted flow drains its rx queue
/// through `on_sdu` as data becomes readable.
void register_sink(Network& net, const std::string& on_node,
                   const std::string& app, const std::string& dif,
                   std::function<void(Bytes&&)> on_sdu) {
  auto fn = std::make_shared<std::function<void(Bytes&&)>>(std::move(on_sdu));
  CHECK(net.node(on_node)
            .register_app(naming::AppName(app), naming::DifName{dif},
                          [fn](flow::Flow f) {
                            f.on_readable([fn](flow::Flow& fl) {
                              while (auto sdu = fl.read()) (*fn)(std::move(*sdu));
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));
}

}  // namespace

static void two_hosts_flow() {
  Network net(42);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());

  int got = 0;
  std::string last;
  register_sink(net, "b", "srv", "d", [&](Bytes&& sdu) {
    ++got;
    last = to_string(BytesView{sdu});
  });

  auto f = open_flow(net, "a", "cli", "srv");
  CHECK(f.port() != 0);
  CHECK(f.info().cube.reliable);
  CHECK(f.info().cube.name == "reliable");
  CHECK(f.info().dif.str() == "d");

  // Both write surfaces work: the Flow handle and the port-id edge.
  CHECK(f.write(BytesView{to_bytes("hello ipc")}).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(got == 1);
  CHECK(last == "hello ipc");

  // The EFCP connection is observable via the FA.
  auto* conn = net.node("a").ipcp(naming::DifName{"d"})->fa().connection(f.port());
  CHECK(conn != nullptr);
  CHECK(conn->stats().get("pdus_tx") == 1);
}

static void relayed_flow() {
  Network net(43);
  net.add_link("a", "r");
  net.add_link("r", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "r", "b"})).ok());
  int got = 0;
  register_sink(net, "b", "srv", "d", [&](Bytes&&) { ++got; });
  auto f = open_flow(net, "a", "cli", "srv");
  for (int i = 0; i < 10; ++i)
    CHECK(net.node("a").write(f.port(), BytesView{to_bytes("x")}).ok());
  net.run_for(SimTime::from_ms(200));
  CHECK(got == 10);
  // The relay actually relayed (data + acks both ways).
  auto* r = net.node("r").ipcp(naming::DifName{"d"});
  CHECK(r->rmt().stats().get("relayed") >= 20);
}

static void wrong_psk_rejected() {
  Network net(44);
  net.add_link("m", "j");
  node::DifSpec s = spec("sec", {"m"});
  s.cfg.auth_policy = "psk-challenge";
  s.cfg.auth_secret = "right";
  CHECK(net.build_link_dif(s).ok());

  dif::DifConfig jc = s.cfg;
  jc.auth_secret = "wrong";
  auto& joiner = net.node("j").create_ipcp(jc);
  auto ports = net.wire_ipcps(naming::DifName{"sec"}, "j", "m");
  CHECK(ports.ok());
  CHECK(joiner.enroll_via(ports.value().first).ok());
  net.run_for(SimTime::from_sec(3));
  CHECK(!joiner.enrolled());
  auto* m = net.node("m").ipcp(naming::DifName{"sec"});
  CHECK(m->enrollment().stats().get("joins_rejected") == 3);
  CHECK(m->enrollment().stats().get("members_admitted") == 0);

  // And with the right key, admission works.
  dif::DifConfig good = s.cfg;
  auto& joiner2 = net.node("j2").create_ipcp(good);
  net.add_link("j2", "m");
  auto ports2 = net.wire_ipcps(naming::DifName{"sec"}, "j2", "m");
  CHECK(ports2.ok());
  CHECK(joiner2.enroll_via(ports2.value().first).ok());
  net.run_until([&] { return joiner2.enrolled(); }, SimTime::from_sec(3));
  CHECK(joiner2.enrolled());
  CHECK(m->enrollment().stats().get("members_admitted") == 1);
}

static void overlay_dif_carries_data() {
  Network net(45);
  net.add_link("a", "r");
  net.add_link("r", "b");
  CHECK(net.build_link_dif(spec("hopA", {"a", "r"})).ok());
  CHECK(net.build_link_dif(spec("hopB", {"r", "b"})).ok());
  node::DifSpec e2e = spec("e2e", {"a", "r", "b"});
  CHECK(net.build_overlay_dif(e2e,
                              {{"a", "r", naming::DifName{"hopA"}, {}},
                               {"r", "b", naming::DifName{"hopB"}, {}}})
            .ok());
  int got = 0;
  register_sink(net, "b", "srv", "e2e", [&](Bytes&&) { ++got; });
  net.run_for(SimTime::from_ms(100));
  auto f = open_flow(net, "a", "cli", "srv");
  for (int i = 0; i < 5; ++i)
    CHECK(f.write(BytesView{to_bytes("y")}).ok());
  net.run_for(SimTime::from_ms(300));
  CHECK(got == 5);
  // Application names never entered the hop DIFs' directories.
  CHECK(!net.node("r").ipcp(naming::DifName{"hopA"})->resolver().can_resolve(
      naming::AppName("srv")));
}

static void link_failure_reroutes() {
  Network net(46);
  net.add_link("a", "r1");
  net.add_link("r1", "b");
  net.add_link("a", "r2");
  net.add_link("r2", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "r1", "r2", "b"})).ok());
  int got = 0;
  register_sink(net, "b", "srv", "d", [&](Bytes&&) { ++got; });
  auto f = open_flow(net, "a", "cli", "srv");
  CHECK(f.write(BytesView{to_bytes("1")}).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(got == 1);
  // Kill one path; the reliable flow must still deliver.
  CHECK(net.set_link_state("a", "r1", false).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(f.write(BytesView{to_bytes("2")}).ok());
  net.run_for(SimTime::from_sec(1));
  CHECK(got == 2);
}

int main() {
  two_hosts_flow();
  relayed_flow();
  wrong_psk_rejected();
  overlay_dif_carries_data();
  link_failure_reroutes();
  return TEST_MAIN_RESULT();
}
