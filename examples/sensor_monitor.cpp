// End-to-end plant monitoring: an SPI temperature sensor on a TpWIRE slave,
// polled over the bus, published into the tuplespace, consumed by a monitor
// and an alarm handler — the paper's sensors/actuators-over-middleware
// story in one runnable piece.
//
//   ./sensor_monitor
#include <cstdio>

#include "src/sim/process.hpp"
#include "src/space/engine.hpp"
#include "src/svc/sensor.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/master.hpp"

using namespace tb;
using namespace tb::sim::literals;

int main() {
  sim::Simulator sim(1);

  // --- the plant: a TpWIRE bus with one slave hosting the SPI sensor -----
  wire::LinkConfig link;
  link.bit_rate_hz = 9'600;
  wire::OneWireBus bus(sim, link);
  wire::SlaveDevice slave(sim, 1, link);
  bus.attach(slave);
  svc::TemperatureSensor::Profile profile;
  profile.base_centi = 2'400;   // 24.0 degC around the alarm threshold
  profile.swing_centi = 400;
  auto sensor = std::make_unique<svc::TemperatureSensor>(profile);
  const svc::TemperatureSensor* sensor_view = sensor.get();
  slave.set_spi(std::move(sensor));
  wire::Master master(bus);

  // --- the space and the publishing agent --------------------------------
  space::SpaceEngine space(sim);
  svc::LocalSpaceApi api(space);
  svc::SensorAgentConfig config;
  config.node = 1;
  config.period = 2_s;
  config.reading_lease = 5_s;
  config.alarm_threshold_centi = 2'700;  // 27.0 degC
  svc::SensorAgent agent(master, api, config);

  // --- consumers: a monitor printout and an alarm actuator ----------------
  space.notify(
      space::Template(std::string(svc::SensorAgent::reading_tuple_name()),
                      {space::FieldPattern::any(), space::FieldPattern::any()}),
      space::kLeaseForever, [&sim](const space::Tuple& t) {
        std::printf("[t=%7s] node %lld reads %.2f degC\n",
                    sim.now().to_string().c_str(),
                    static_cast<long long>(t.fields[0].as_int()),
                    static_cast<double>(t.fields[1].as_int()) / 100.0);
      });

  int alarms_handled = 0;
  sim::spawn([&]() -> sim::Task<void> {
    while (true) {
      std::vector<space::FieldPattern> fields;
      fields.push_back(space::FieldPattern::any());
      fields.push_back(space::FieldPattern::any());
      space::Template alarm_template(
          std::string(svc::SensorAgent::alarm_tuple_name()), std::move(fields));
      auto alarm = co_await space::take(space, std::move(alarm_template), 60_s);
      if (!alarm.has_value()) co_return;  // quiet for a minute: shut down
      ++alarms_handled;
      std::printf("[t=%7s] !!! OVERTEMP %.2f degC -> throttling actuator\n",
                  sim.now().to_string().c_str(),
                  static_cast<double>(alarm->fields[1].as_int()) / 100.0);
    }
  });

  agent.start();
  sim.run_until(120_s);
  agent.stop();
  sim.run_until(200_s);

  std::printf("\nsummary: %llu readings published, %llu alarms (%d handled), "
              "%llu SPI conversions, %llu bus errors\n",
              static_cast<unsigned long long>(agent.stats().readings_published),
              static_cast<unsigned long long>(agent.stats().alarms_published),
              alarms_handled,
              static_cast<unsigned long long>(sensor_view->conversions()),
              static_cast<unsigned long long>(agent.stats().bus_errors));
  std::printf("stale readings evaporate by lease: space holds %zu tuples at "
              "the end\n", space.size());
  return 0;
}
