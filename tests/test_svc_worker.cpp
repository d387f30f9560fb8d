#include "src/svc/worker_pool.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include <memory>

#include "src/sim/process.hpp"

namespace tb::svc {
namespace {

using namespace tb::sim::literals;

TEST(PackDoubles, RoundTrip) {
  const std::vector<double> values = {0.0, 1.5, -2.25, 1e100, -1e-100};
  EXPECT_EQ(unpack_doubles(pack_doubles(values)), values);
}

TEST(PackDoubles, RejectsRaggedBytes) {
  std::vector<std::uint8_t> ragged(9, 0);
  EXPECT_THROW(unpack_doubles(ragged), util::PreconditionError);
}

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() : space_(sim_), api_(space_) {}

  sim::Simulator sim_{1};
  space::SpaceEngine space_;
  LocalSpaceApi api_;
};

TEST_F(WorkerTest, SingleConsumerCompletesAllJobs) {
  FftConsumer consumer(api_, "c0");
  consumer.start();
  ProducerConfig config;
  config.jobs = 8;
  config.fft_size = 64;
  FftProducer producer(api_, config);

  std::optional<FftProducer::Result> result;
  sim::spawn([&]() -> sim::Task<void> {
    result = co_await producer.run();
  });
  sim_.run_until(60_s);

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->completed, 8u);
  EXPECT_EQ(result->lost, 0u);
  EXPECT_EQ(consumer.jobs_done(), 8u);
  EXPECT_GT(result->job_latency.mean(), 0.0);
}

TEST_F(WorkerTest, ResultsCarryRealSpectra) {
  // A consumer must compute an actual FFT: check via a known signal pushed
  // through the tuple protocol by hand.
  FftConsumer consumer(api_, "c0");
  consumer.start();

  std::vector<double> impulse(16, 0.0);
  impulse[0] = 1.0;
  std::optional<space::Tuple> response;
  sim::spawn([&]() -> sim::Task<void> {
    std::vector<space::Value> fields;
    fields.emplace_back(std::int64_t{500});
    fields.emplace_back(pack_doubles(impulse));
    space::Tuple request("fft-req", std::move(fields));
    co_await api_.write(std::move(request), space::kLeaseForever);
    space::Template tmpl(
        std::string("fft-resp"),
        {space::FieldPattern::exact(space::Value(std::int64_t{500})),
         space::FieldPattern::typed(space::ValueType::kBytes)});
    response = co_await api_.take(std::move(tmpl), 30_s);
  });
  sim_.run_until(60_s);

  ASSERT_TRUE(response.has_value());
  const std::vector<double> magnitudes =
      unpack_doubles(response->fields[1].as_bytes());
  ASSERT_EQ(magnitudes.size(), 16u);
  for (double m : magnitudes) EXPECT_NEAR(m, 1.0, 1e-9);  // flat spectrum
}

TEST_F(WorkerTest, ThroughputScalesWithConsumers) {
  // §2.1: "the overall system performance [is] clearly proportional to the
  // number of consumers". Multiple producers feed the pool; makespan must
  // shrink roughly linearly in the consumer count.
  auto makespan_with = [&](int consumers) {
    sim::Simulator sim(1);
    space::SpaceEngine space(sim);
    LocalSpaceApi api(space);
    std::vector<std::unique_ptr<FftConsumer>> pool;
    ConsumerConfig cc;
    cc.compute_time = 100_ms;  // compute-bound regime
    for (int i = 0; i < consumers; ++i) {
      pool.push_back(std::make_unique<FftConsumer>(api, "c", cc));
      pool.back()->start();
    }
    constexpr int kProducers = 4;
    int finished = 0;
    // The consumers poll forever, so the sim never drains: capture the
    // instant the last producer completes instead of the final sim time.
    sim::Time all_done;
    for (int p = 0; p < kProducers; ++p) {
      ProducerConfig pc;
      pc.jobs = 6;
      pc.fft_size = 32;
      pc.job_id_base = 1'000 * (p + 1);
      pc.submit_gap = sim::Time::zero();
      sim::spawn([&, pc]() -> sim::Task<void> {
        FftProducer producer(api, pc);
        auto result = co_await producer.run();
        EXPECT_EQ(result.completed, pc.jobs);
        if (++finished == kProducers) all_done = sim.now();
      });
    }
    sim.run_until(600_s);
    EXPECT_EQ(finished, kProducers);
    return all_done;
  };

  // Use ratios of the busy period rather than absolute values.
  const double one = makespan_with(1).seconds();
  const double four = makespan_with(4).seconds();
  EXPECT_GT(one / four, 2.0) << "one=" << one << " four=" << four;
}

TEST_F(WorkerTest, ProducerReportsLostJobsOnTimeout) {
  ProducerConfig config;
  config.jobs = 2;
  config.fft_size = 16;
  config.result_timeout = 200_ms;  // no consumer exists
  FftProducer producer(api_, config);
  std::optional<FftProducer::Result> result;
  sim::spawn([&]() -> sim::Task<void> {
    result = co_await producer.run();
  });
  sim_.run_until(10_s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->completed, 0u);
  EXPECT_EQ(result->lost, 2u);
}

TEST_F(WorkerTest, ProducerRejectsNonPowerOfTwo) {
  ProducerConfig config;
  config.fft_size = 100;
  EXPECT_THROW(FftProducer(api_, config), util::PreconditionError);
}

}  // namespace
}  // namespace tb::svc
