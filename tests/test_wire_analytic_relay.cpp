// AnalyticRelayTiming vs the bit-accurate relay path (DESIGN.md §13).
//
// The analytic level prices a relayed segment in closed form; these tests
// pin it against the event-driven ground truth. The marginal per-byte cost
// is exact — every extra payload byte is exactly one more reply cycle per
// stage — so the cross-model assertion is equality, not a tolerance. Total
// latency carries poll-phase detection jitter, so it is checked against the
// [best_case, worst_case] bounds instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/sim/process.hpp"
#include "src/wire/bus_model.hpp"
#include "src/wire/master.hpp"
#include "src/wire/multibus.hpp"
#include "src/wire/multibus_relay.hpp"
#include "src/wire/relay.hpp"
#include "src/wire/segment.hpp"
#include "src/wire/timing.hpp"

namespace tb::wire {
namespace {

using namespace tb::sim::literals;

LinkConfig fast_link() {
  LinkConfig link;
  link.bit_rate_hz = 100'000;
  return link;
}

RelayConfig big_drain_relay() {
  RelayConfig config;
  config.poll_period = sim::Time::ms(5);
  config.max_drain_per_visit = 256;  // whole segment in one visit
  return config;
}

/// End time of the last WRITE_DATA cycle on the bus — the instant the final
/// wire byte of the pushed segment lands in the destination inbox.
struct ArrivalProbe {
  std::optional<sim::Time> last_write_data;

  void watch(BusModel& bus) {
    bus.on_cycle().connect([this](const CycleTrace& t) {
      const std::optional<TxFrame> tx = TxFrame::decode(t.tx_word);
      if (tx.has_value() && tx->cmd == Command::kWriteData) {
        last_write_data = t.end;
      }
    });
  }
};

/// One-bus relay run: slave 1's outbox holds one segment for slave 2 before
/// the relay starts, so the very first probe at t=0 detects it and the
/// whole transfer runs back-to-back — the closed form's best case.
sim::Time single_bus_arrival(std::size_t payload_bytes) {
  sim::Simulator sim(1);
  const LinkConfig link = fast_link();
  std::unique_ptr<BusModel> bus =
      make_bus_model(BusModelLevel::kBitAccurate, sim, link);
  SlaveDevice src(sim, 1, link), dst(sim, 2, link);
  bus->attach(src);
  bus->attach(dst);
  Master master(*bus);
  MasterRelay relay(master, {1, 2}, big_drain_relay());

  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  src.host_send(encode_segment({1, 2, payload}));

  ArrivalProbe probe;
  probe.watch(*bus);
  relay.start();
  sim.run_until(5_s);

  SegmentParser parser;
  parser.feed(dst.host_receive());
  const std::optional<RelaySegment> got = parser.next();
  EXPECT_TRUE(got.has_value());
  if (got.has_value()) {
    EXPECT_EQ(got->payload, payload);
  }
  EXPECT_TRUE(probe.last_write_data.has_value());
  return probe.last_write_data.value_or(sim::Time::zero());
}

TEST(AnalyticRelay, SingleBusTransferMatchesClosedFormExactly) {
  // Probe fires at t=0 and nothing else contends for the bus, so the
  // measured arrival is not merely inside the bounds — it IS the best case.
  const LinkConfig link = fast_link();
  const AnalyticRelayTiming relay = AnalyticRelayTiming::point_to_point(
      link, /*src_pos=*/0, /*dst_pos=*/1, /*cold_caches=*/true);
  for (const std::size_t payload : {std::size_t{8}, std::size_t{40}}) {
    EXPECT_EQ(single_bus_arrival(payload), relay.best_case_latency(payload))
        << "payload " << payload;
  }
}

TEST(AnalyticRelay, PerByteCostIsExactAgainstBitAccurate) {
  // The marginal cost carries no poll-phase, cache or probe terms: the
  // arrival delta between two payload sizes must equal per_byte_cost()
  // times the wire-size delta, to the nanosecond.
  const LinkConfig link = fast_link();
  const AnalyticRelayTiming relay =
      AnalyticRelayTiming::point_to_point(link, 0, 1, true);
  const sim::Time a8 = single_bus_arrival(8);
  const sim::Time a40 = single_bus_arrival(40);
  const auto wire_delta = static_cast<std::int64_t>(segment_wire_size(40) -
                                                    segment_wire_size(8));
  EXPECT_EQ(a40 - a8, relay.per_byte_cost() * wire_delta);
}

TEST(AnalyticRelay, CrossBusTransferWithinLatencyBounds) {
  // Across two buses the push rides a queue and contends with the remote
  // bus's own poll loop, so exact equality is out; the [best, worst] bounds
  // must still hold (worst adds one poll period per drain stage).
  const LinkConfig link = fast_link();
  const RelayConfig relay_config = big_drain_relay();
  auto run = [&](std::size_t payload_bytes) {
    sim::Simulator sim(1);
    MultiBusSystem system(sim, link, 2);
    std::vector<std::unique_ptr<SlaveDevice>> slaves;
    for (int i = 0; i < 4; ++i) {
      slaves.push_back(std::make_unique<SlaveDevice>(
          sim, static_cast<std::uint8_t>(i + 1), link));
      system.attach(i < 2 ? 0 : 1, *slaves.back());
    }
    MultiBusRelay relay(system, {1, 2, 3, 4}, relay_config);
    std::vector<std::uint8_t> payload(payload_bytes, 0x5A);
    slaves[0]->host_send(encode_segment({1, 4, payload}));
    ArrivalProbe probe;
    probe.watch(system.bus(1));  // node 4 lives on bus 1
    relay.start();
    sim.run_until(5_s);
    SegmentParser parser;
    parser.feed(slaves[3]->host_receive());
    EXPECT_TRUE(parser.next().has_value());
    EXPECT_TRUE(probe.last_write_data.has_value());
    return probe.last_write_data.value_or(sim::Time::zero());
  };

  // Source sits at chain position 0 of bus 0, destination at position 1 of
  // bus 1; both segments share one LinkConfig.
  const AnalyticRelayTiming timing =
      AnalyticRelayTiming::point_to_point(link, 0, 1, true);
  for (const std::size_t payload : {std::size_t{8}, std::size_t{40}}) {
    const sim::Time arrival = run(payload);
    EXPECT_GE(arrival, timing.best_case_latency(payload))
        << "payload " << payload;
    EXPECT_LE(arrival,
              timing.worst_case_latency(payload, relay_config.poll_period))
        << "payload " << payload;
  }
}

TEST(AnalyticRelay, StageCyclesStructure) {
  const LinkConfig link = fast_link();
  using Stage = AnalyticRelayTiming::Stage;
  const std::size_t wire = segment_wire_size(8);
  // Warm drain: probe + SELECT + terminal NAK on top of the byte pops.
  EXPECT_EQ(AnalyticRelayTiming::stage_cycles(
                Stage{Stage::Kind::kDrain, link, 0, false, true}, wire),
            wire + 3);
  // Cold drain adds the WRITE_ADDR pair.
  EXPECT_EQ(AnalyticRelayTiming::stage_cycles(
                Stage{Stage::Kind::kDrain, link, 0, true, true}, wire),
            wire + 5);
  // Warm push that kept its selection is pure WRITE_DATA.
  EXPECT_EQ(AnalyticRelayTiming::stage_cycles(
                Stage{Stage::Kind::kPush, link, 0, false, false}, wire),
            wire);
  // Reselecting cold push: SELECT + WRITE_ADDR pair.
  EXPECT_EQ(AnalyticRelayTiming::stage_cycles(
                Stage{Stage::Kind::kPush, link, 0, true, true}, wire),
            wire + 3);
}

TEST(AnalyticRelay, ChainedTopologyComposesStages) {
  const LinkConfig link = fast_link();
  // 3 segments bridged by 2 gateways: drain src, push+drain gateway 1,
  // push dst — the middle boundary contributes both directions.
  const AnalyticRelayTiming chain =
      AnalyticRelayTiming::chained(link, 3, /*chain_pos=*/1);
  ASSERT_EQ(chain.stage_count(), 4);
  using Kind = AnalyticRelayTiming::Stage::Kind;
  EXPECT_EQ(chain.stages()[0].kind, Kind::kDrain);
  EXPECT_EQ(chain.stages()[1].kind, Kind::kPush);
  EXPECT_EQ(chain.stages()[2].kind, Kind::kDrain);
  EXPECT_EQ(chain.stages()[3].kind, Kind::kPush);
  // Per-byte cost scales with the stage count: every stage moves the byte
  // in one reply cycle at its chain position.
  const AnalyticTiming cycle(link);
  EXPECT_EQ(chain.per_byte_cost(), cycle.reply_cycle(1) * 4);
  // Pipelined throughput is bottlenecked by the slowest stage, serialized
  // throughput by the sum of all four (drains carry probe/SELECT/NAK
  // overhead cycles, so the ratio is sum/max, a bit under stage_count).
  const double pipelined = chain.throughput_bps(32, /*pipelined=*/true);
  const double serial = chain.throughput_bps(32, /*pipelined=*/false);
  EXPECT_GT(pipelined, 0.0);
  const std::size_t wire = segment_wire_size(32);
  std::uint64_t sum = 0, slowest = 0;
  for (const auto& stage : chain.stages()) {
    const std::uint64_t cycles = AnalyticRelayTiming::stage_cycles(stage, wire);
    sum += cycles;
    slowest = std::max(slowest, cycles);
  }
  EXPECT_NEAR(pipelined / serial,
              static_cast<double>(sum) / static_cast<double>(slowest), 1e-9);
}

}  // namespace
}  // namespace tb::wire
