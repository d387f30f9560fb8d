// Location transparency: the factory-automation services must run unchanged
// against a remote space (SpaceClient over a transport) — the paper's whole
// point about tuplespace middleware abstracting the communication
// infrastructure.
#include <gtest/gtest.h>

#include "co_gtest.hpp"
#include "src/mw/client.hpp"
#include "src/mw/loopback.hpp"
#include "src/mw/node_core.hpp"
#include "src/sim/process.hpp"
#include "src/svc/discovery.hpp"
#include "src/svc/failover.hpp"
#include "src/svc/worker_pool.hpp"

namespace tb::svc {
namespace {

using namespace tb::sim::literals;

/// Loopback-middleware fixture with N remote clients, each wrapped in a
/// RemoteSpaceApi.
class RemoteSvcTest : public ::testing::Test {
 protected:
  RemoteSvcTest() : space_(sim_), hub_(sim_, 2_ms), server_(space_, hub_, codec_) {}

  RemoteSpaceApi& make_api() {
    mw::LoopbackClient& transport = hub_.create_client();
    clients_.push_back(std::make_unique<mw::SpaceClient>(sim_, transport, codec_));
    apis_.push_back(std::make_unique<RemoteSpaceApi>(sim_, *clients_.back()));
    return *apis_.back();
  }

  sim::Simulator sim_{1};
  space::SpaceEngine space_;
  mw::XmlCodec codec_;
  mw::LoopbackHub hub_;
  mw::NodeCore server_;
  std::vector<std::unique_ptr<mw::SpaceClient>> clients_;
  std::vector<std::unique_ptr<RemoteSpaceApi>> apis_;
};

TEST_F(RemoteSvcTest, DiscoveryAcrossClients) {
  RemoteSpaceApi& provider_api = make_api();
  RemoteSpaceApi& consumer_api = make_api();
  Discovery provider(provider_api);
  Discovery consumer(consumer_api);

  bool done = false;
  sim::spawn([&]() -> sim::Task<void> {
    ServiceRecord record{"fft", "remote-1", 42, 1};
    EXPECT_TRUE(co_await provider.announce(record));
    auto found = co_await consumer.locate("fft", 5_s);
    CO_ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->provider, "remote-1");
    EXPECT_EQ(found->endpoint, 42);
    done = true;
  });
  sim_.run_until(30_s);
  EXPECT_TRUE(done);
}

TEST_F(RemoteSvcTest, FailoverElectionOverMiddleware) {
  FailoverConfig config;
  config.tick = 100_ms;
  config.grace = 400_ms;

  // Each actuator runs on its own remote client — like agents on separate
  // boards sharing the space server.
  ActuatorAgent a(make_api(), "act-A", 0, config);
  ActuatorAgent b(make_api(), "act-B", 1, config);
  ControlAgent control(make_api(), config);
  a.start();
  b.start();
  sim::spawn([&]() -> sim::Task<void> { (void)co_await control.arm(5_s); });
  sim_.run_until(3_s);

  const bool a_op = a.state() == ActuatorAgent::State::kOperating;
  const bool b_op = b.state() == ActuatorAgent::State::kOperating;
  EXPECT_NE(a_op, b_op);

  // Failover across the middleware too.
  ActuatorAgent& operating = a_op ? a : b;
  ActuatorAgent& backup = a_op ? b : a;
  operating.fail();
  sim_.run_until(sim_.now() + 10_s);
  EXPECT_EQ(backup.state(), ActuatorAgent::State::kOperating);
}

TEST_F(RemoteSvcTest, FftPoolOverMiddleware) {
  RemoteSpaceApi& consumer_api = make_api();
  RemoteSpaceApi& producer_api = make_api();
  FftConsumer consumer(consumer_api, "remote-consumer");
  consumer.start();

  ProducerConfig config;
  config.jobs = 4;
  config.fft_size = 64;
  FftProducer producer(producer_api, config);
  std::optional<FftProducer::Result> result;
  sim::spawn([&]() -> sim::Task<void> {
    result = co_await producer.run();
  });
  sim_.run_until(120_s);

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->completed, 4u);
  EXPECT_EQ(result->lost, 0u);
}

TEST_F(RemoteSvcTest, MixedLocalAndRemoteAgentsShareTheSpace) {
  // A local (in-server) agent and a remote client cooperate — the server
  // host can run agents of its own.
  LocalSpaceApi local(space_);
  RemoteSpaceApi& remote = make_api();
  bool done = false;
  sim::spawn([&]() -> sim::Task<void> {
    co_await local.write(space::make_tuple("from-local", 1),
                         space::kLeaseForever);
    space::Template tmpl(std::string("from-local"),
                         {space::FieldPattern::any()});
    auto got = co_await remote.take(std::move(tmpl), 5_s);
    CO_ASSERT_TRUE(got.has_value());

    co_await remote.write(space::make_tuple("from-remote", 2),
                          space::kLeaseForever);
    space::Template back(std::string("from-remote"),
                         {space::FieldPattern::any()});
    auto echo = co_await local.take(std::move(back), 5_s);
    CO_ASSERT_TRUE(echo.has_value());
    done = true;
  });
  sim_.run_until(30_s);
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace tb::svc
