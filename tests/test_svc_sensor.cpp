#include "src/svc/sensor.hpp"

#include <gtest/gtest.h>

#include "src/sim/process.hpp"
#include "src/util/assert.hpp"
#include "src/wire/bus.hpp"

namespace tb::svc {
namespace {

using namespace tb::sim::literals;

TEST(TemperatureSensor, ConvertThenTwoReads) {
  TemperatureSensor sensor;
  const std::uint8_t status = sensor.exchange(TemperatureSensor::kCmdConvert);
  EXPECT_EQ(status, 0xB0);
  const std::uint8_t hi = sensor.exchange(TemperatureSensor::kCmdRead);
  const std::uint8_t lo = sensor.exchange(TemperatureSensor::kCmdRead);
  const auto value = static_cast<std::int16_t>((hi << 8) | lo);
  EXPECT_EQ(value, sensor.last_value_centi());
  EXPECT_EQ(sensor.conversions(), 1u);
}

TEST(TemperatureSensor, ReadWithoutConversionReturnsFF) {
  TemperatureSensor sensor;
  EXPECT_EQ(sensor.exchange(TemperatureSensor::kCmdRead), 0xFF);
  // After a full read-out the FIFO is empty again.
  sensor.exchange(TemperatureSensor::kCmdConvert);
  sensor.exchange(TemperatureSensor::kCmdRead);
  sensor.exchange(TemperatureSensor::kCmdRead);
  EXPECT_EQ(sensor.exchange(TemperatureSensor::kCmdRead), 0xFF);
}

TEST(TemperatureSensor, UnknownCommandReturnsFF) {
  TemperatureSensor sensor;
  EXPECT_EQ(sensor.exchange(0x42), 0xFF);
}

TEST(TemperatureSensor, ValuesStayWithinProfileEnvelope) {
  SensorProfile profile;
  profile.base_centi = 2'000;
  profile.swing_centi = 100;
  profile.noise_centi = 10;
  TemperatureSensor sensor(profile);
  for (int i = 0; i < 500; ++i) {
    sensor.exchange(TemperatureSensor::kCmdConvert);
    const int v = sensor.last_value_centi();
    EXPECT_GE(v, 2'000 - 110);
    EXPECT_LE(v, 2'000 + 110);
  }
}

TEST(TemperatureSensor, DeterministicForSameSeed) {
  TemperatureSensor a, b;
  for (int i = 0; i < 50; ++i) {
    a.exchange(TemperatureSensor::kCmdConvert);
    b.exchange(TemperatureSensor::kCmdConvert);
    EXPECT_EQ(a.last_value_centi(), b.last_value_centi());
  }
}

class SensorAgentTest : public ::testing::Test {
 protected:
  SensorAgentTest()
      : bus_(sim_, link_), slave_(sim_, 1, link_), master_(bus_),
        space_(sim_), api_(space_) {
    bus_.attach(slave_);
    auto sensor = std::make_unique<TemperatureSensor>();
    sensor_ = sensor.get();
    slave_.set_spi(std::move(sensor));
  }

  sim::Simulator sim_{1};
  wire::LinkConfig link_;
  wire::OneWireBus bus_;
  wire::SlaveDevice slave_;
  wire::Master master_;
  space::SpaceEngine space_;
  LocalSpaceApi api_;
  TemperatureSensor* sensor_ = nullptr;
};

TEST_F(SensorAgentTest, PublishesReadingsOverTheBus) {
  SensorAgentConfig config;
  config.period = 500_ms;
  config.reading_lease = 2_s;
  SensorAgent agent(master_, api_, config);
  agent.start();
  sim_.run_until(5_s);

  EXPECT_GE(agent.stats().readings_published, 9u);
  EXPECT_EQ(agent.stats().bus_errors, 0u);
  EXPECT_EQ(sensor_->conversions(), agent.stats().readings_published);

  // The freshest readings are in the space; older ones expired.
  space::Template tmpl(std::string(SensorAgent::reading_tuple_name()),
                       {space::FieldPattern::exact(space::Value(std::int64_t{1})),
                        space::FieldPattern::typed(space::ValueType::kInt)});
  const auto fresh = space_.read_all(tmpl);
  EXPECT_GE(fresh.size(), 1u);
  EXPECT_LE(fresh.size(), 5u);  // lease 2 s / period 0.5 s
}

TEST_F(SensorAgentTest, AlarmTuplesAboveThreshold) {
  SensorAgentConfig config;
  config.period = 100_ms;
  config.alarm_threshold_centi = 0;  // everything alarms
  SensorAgent agent(master_, api_, config);
  agent.start();
  sim_.run_until(1_s);
  EXPECT_GT(agent.stats().alarms_published, 0u);
  EXPECT_EQ(agent.stats().alarms_published, agent.stats().readings_published);
}

TEST_F(SensorAgentTest, StaleReadingsExpire) {
  SensorAgentConfig config;
  config.period = 200_ms;
  config.reading_lease = 1_s;
  SensorAgent agent(master_, api_, config);
  agent.start();
  sim_.run_until(3_s);
  agent.stop();
  sim_.run_until(10_s);  // all leases run out after the agent stops
  EXPECT_EQ(space_.size(), 0u);
}

TEST_F(SensorAgentTest, RejectsBadConfig) {
  SensorAgentConfig config;
  config.period = sim::Time::zero();
  EXPECT_THROW(SensorAgent(master_, api_, config), util::PreconditionError);
}

}  // namespace
}  // namespace tb::svc
