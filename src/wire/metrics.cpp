#include "src/wire/metrics.hpp"

namespace tb::wire {

void bind_metrics(obs::Registry& registry, BusModel& bus,
                  const std::string& prefix) {
  const std::string base = prefix + ".bus.";
  obs::Counter& frames_rx = registry.counter(base + "frames_rx");
  obs::Histogram& cycle_ns = registry.histogram(base + "cycle_ns");

  bus.on_cycle().connect([&registry, &frames_rx, &cycle_ns,
                          base](const CycleTrace& trace) {
    // frames_tx / status counters mirror the bus Stats below; the signal
    // adds what Stats cannot: RX word sightings and latency.
    if (trace.rx_seen) frames_rx.add();
    const std::uint64_t ns =
        static_cast<std::uint64_t>((trace.end - trace.start).count_ns());
    cycle_ns.record(ns);
    if (trace.responder >= 0) {
      registry
          .histogram(base + "poll_ns.node" + std::to_string(trace.responder))
          .record(ns);
    }
  });

  using Stats = BusModel::Stats;
  registry.mirror(base, bus.stats(),
                  {{"cycles", &Stats::cycles},
                   {"ok", &Stats::ok},
                   {"timeouts", &Stats::timeouts},
                   {"crc_errors", &Stats::crc_errors},
                   // Every cycle puts exactly one TX word out.
                   {"frames_tx", &Stats::cycles},
                   {"tx_corrupted", &Stats::tx_corrupted},
                   {"rx_corrupted", &Stats::rx_corrupted}});
  obs::Gauge& utilization = registry.gauge(base + "utilization");
  registry.add_collector(
      [&bus, &utilization] { utilization.set(bus.utilization()); });
}

void bind_metrics(obs::Registry& registry, Master& master,
                  const std::string& prefix) {
  const std::string base = prefix + ".master.";
  obs::Histogram& transact_ns = registry.histogram(base + "transact_ns");
  master.on_transact().connect([&transact_ns](const Master::TransactTrace& t) {
    transact_ns.record(static_cast<std::uint64_t>((t.end - t.start).count_ns()));
  });

  using Stats = Master::Stats;
  registry.mirror(base, master.stats(),
                  {{"operations", &Stats::operations},
                   {"frames_sent", &Stats::frames_sent},
                   {"retries", &Stats::retries},
                   {"failures", &Stats::failures},
                   {"select_skips", &Stats::select_skips},
                   {"address_skips", &Stats::address_skips},
                   {"ack_losses", &Stats::ack_losses}});
}

}  // namespace tb::wire
