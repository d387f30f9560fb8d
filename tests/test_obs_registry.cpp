#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/sim/simulator.hpp"

namespace tb::obs {
namespace {

TEST(Counter, AccumulatesAndSnapshots) {
  Registry registry;
  Counter& c = registry.counter("wire.frames_tx");
  c.add(3);
  c.add(2);
  EXPECT_EQ(c.value(), 5u);
  // Same name returns the same instrument.
  registry.counter("wire.frames_tx").add(1);
  EXPECT_EQ(c.value(), 6u);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("wire.frames_tx"), 6u);
  EXPECT_EQ(snap.counter_value("no.such.counter"), 0u);
}

TEST(Gauge, TracksPeak) {
  Registry registry;
  Gauge& g = registry.gauge("sim.queue.depth");
  g.set(4.0);
  g.set(10.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.peak(), 10.0);

  // A never-set gauge reports its (zero) value as peak, not a sentinel.
  Gauge& untouched = registry.gauge("sim.queue.other");
  EXPECT_DOUBLE_EQ(untouched.peak(), 0.0);
}

TEST(Histogram, Log2Buckets) {
  Registry registry;
  Histogram& h = registry.histogram("wire.cycle_ns");
  // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i).
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.sum(), 1030u);

  const Snapshot snap = registry.snapshot();
  const Snapshot::HistogramSample* data = snap.find_histogram("wire.cycle_ns");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->histogram.bucket_count(0), 1u);   // value 0
  EXPECT_EQ(data->histogram.bucket_count(1), 1u);   // [1, 2)
  EXPECT_EQ(data->histogram.bucket_count(2), 2u);   // [2, 4)
  EXPECT_EQ(data->histogram.bucket_count(11), 1u);  // [1024, 2048)
  EXPECT_EQ(Histogram::bucket_lo(11), 1024u);
  EXPECT_EQ(Histogram::bucket_hi(11), 2048u);
}

TEST(Histogram, PercentilesClampToObservedRange) {
  Registry registry;
  Histogram& h = registry.histogram("lat");
  for (int i = 0; i < 100; ++i) h.record(1000);
  // All mass in one bucket: every percentile must report a value inside
  // [min, max] = [1000, 1000] despite bucket interpolation.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 1000.0);

  Histogram& spread = registry.histogram("lat2");
  for (std::uint64_t v = 1; v <= 1000; ++v) spread.record(v);
  const double p50 = spread.percentile(50.0);
  const double p99 = spread.percentile(99.0);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GT(p99, p50);
  EXPECT_LE(p99, 1000.0);
}

TEST(Registry, RatesUseTheSimClock) {
  // A fake clock stands in for the simulator: rates must be computed from
  // the instrument's own time base, never the wall clock.
  std::uint64_t fake_now_ns = 0;
  Registry registry;
  registry.set_clock([&fake_now_ns] { return fake_now_ns; });
  Counter& c = registry.counter("ops");

  c.add(100);
  fake_now_ns = 1'000'000'000;  // t = 1s
  const Snapshot first = registry.snapshot();
  EXPECT_EQ(first.sim_now_ns, 1'000'000'000u);
  EXPECT_DOUBLE_EQ(first.rate_per_sec("ops"), 100.0);

  c.add(50);
  fake_now_ns = 2'000'000'000;  // t = 2s
  const Snapshot second = registry.snapshot();
  // Lifetime rate: 150 ops over 2 s.
  EXPECT_DOUBLE_EQ(second.rate_per_sec("ops"), 75.0);
}

TEST(Registry, SimulatorBindsItsClock) {
  sim::Simulator sim;
  Registry registry;
  sim.bind_metrics(registry);
  sim.schedule_at(sim::Time::ns(500), [] {});
  sim.schedule_at(sim::Time::ns(700), [] {});
  sim.run();

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.sim_now_ns, 700u);
  EXPECT_EQ(snap.counter_value("sim.events.scheduled"), 2u);
  EXPECT_EQ(snap.counter_value("sim.events.fired"), 2u);
  EXPECT_EQ(snap.counter_value("sim.events.cancelled"), 0u);
}

TEST(Registry, CollectorsRunAtSnapshot) {
  Registry registry;
  int calls = 0;
  registry.add_collector([&registry, &calls] {
    ++calls;
    registry.counter("pulled").set(42);
  });
  EXPECT_EQ(calls, 0);
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(snap.counter_value("pulled"), 42u);
}

TEST(Json, RegistrySnapshotTree) {
  std::uint64_t fake_now_ns = 3'000'000'000;
  Registry registry;
  registry.set_clock([&fake_now_ns] { return fake_now_ns; });
  registry.counter("a.count").add(7);
  registry.gauge("b.depth").set(2.5);
  Histogram& h = registry.histogram("c.lat_ns");
  h.record(10);
  h.record(1000);

  const JsonValue json = snapshot_to_json(registry.snapshot());
  EXPECT_EQ(json.at("schema").as_string(), "tb-obs-registry/v1");
  EXPECT_EQ(json.at("sim_time_ns").as_int(), 3'000'000'000);
  const JsonValue& counter = json.at("counters").at("a.count");
  EXPECT_EQ(counter.at("value").as_int(), 7);
  const JsonValue& gauge = json.at("gauges").at("b.depth");
  EXPECT_DOUBLE_EQ(gauge.at("value").as_number(), 2.5);
  const JsonValue& hist = json.at("histograms").at("c.lat_ns");
  EXPECT_EQ(hist.at("count").as_int(), 2);
  EXPECT_EQ(hist.at("min").as_int(), 10);
  EXPECT_EQ(hist.at("max").as_int(), 1000);
  // Buckets serialize as [lower_bound, count] pairs, non-empty only.
  const JsonValue& buckets = hist.at("buckets");
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0][1].as_int(), 1);
}

TEST(Json, BenchReportSchema) {
  BenchReport report("unit_test");
  report.add_param("sweep", JsonValue(std::int64_t{3}));
  report.add_key_metric("latency_ms", 12.5, Better::kLower, {.unit = "ms"});
  BenchReport::KeyMetricOptions ungated;
  ungated.gate = false;
  report.add_key_metric("wall_ns", 999.0, Better::kLower, ungated);
  report.add_table("t", {"x", "y"}, {{"1", "2"}});

  const JsonValue json = report.to_json();
  EXPECT_EQ(json.at("schema").as_string(), "tb-bench-report/v1");
  EXPECT_EQ(json.at("bench").as_string(), "unit_test");
  EXPECT_EQ(json.at("params").at("sweep").as_int(), 3);

  const JsonValue& metrics = json.at("key_metrics");
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].at("name").as_string(), "latency_ms");
  EXPECT_EQ(metrics[0].at("better").as_string(), "lower");
  EXPECT_TRUE(metrics[0].at("gate").as_bool());
  EXPECT_FALSE(metrics[1].at("gate").as_bool());

  const JsonValue& table = json.at("tables").at("t");
  EXPECT_EQ(table.at("headers")[0].as_string(), "x");
  EXPECT_EQ(table.at("rows")[0][1].as_string(), "2");
}

TEST(Json, DumpText) {
  // 2^53 + 1 has no double: an integer must never pass through one.
  JsonValue doc = JsonValue::object();
  doc.set("big", JsonValue(0));
  doc.set("ratio", JsonValue(0.1));
  doc.set("name", JsonValue("a\"b\n"));
  JsonValue list = JsonValue::array();
  list.push_back(JsonValue(true));
  list.push_back(JsonValue());
  doc.set("list", std::move(list));
  // Overwriting a member keeps its place in the insertion order.
  doc.set("big", JsonValue(std::int64_t{9007199254740993}));

  EXPECT_EQ(doc.dump(),
            R"({"big":9007199254740993,"ratio":0.1,"name":"a\"b\n",)"
            R"("list":[true,null]})");
  EXPECT_EQ(doc.at("big").as_int(), 9007199254740993LL);
  EXPECT_TRUE(doc.at("big").is_integral());
  EXPECT_EQ(doc.dump(1),
            "{\n \"big\": 9007199254740993,\n \"ratio\": 0.1,\n"
            " \"name\": \"a\\\"b\\n\",\n \"list\": [\n  true,\n  null\n ]\n}");
}

}  // namespace
}  // namespace tb::obs
