// fig7_bitwire: the paper's Figure-7 / Table-4 rig on the bit-accurate bus.
//
// One board client on Slave1 loops write -> think -> take against the
// space server on Slave3 (XML codec) while a 0.3 B/s CBR flow runs from
// Slave2 to Slave4. The seed draws each entry's payload (64-480 B) and the
// think time (exponential, mean 2 s); the lease is 160 s and the take
// template matches the written entry exactly.
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/cosim/impact.hpp"
#include "src/cosim/scenario.hpp"
#include "src/net/tpwire_channel.hpp"
#include "src/sim/process.hpp"
#include "src/wire/metrics.hpp"

namespace perf {
namespace {

using namespace tb;

/// Simulated length of the measured window per requested second: 19
/// simulated hours (about 1350 ops) ran in about 2.8 s on a 4-core x86 host.
constexpr double kSimSecondsPerSecond = 19.0 * 3600.0 / 3.0;
constexpr double kWarmupSimSeconds = 30.0 * 60.0;
constexpr double kSliceSimSeconds = 60.0;
constexpr std::size_t kSpanCapacity = 200'000;

const sim::Time kLease = sim::Time::sec(160);
const sim::Time kTakeWait = sim::Time::sec(5);  // server-side take wait

enum Kind { kWrite = 0, kTake = 1 };
constexpr std::array<const char*, 2> kKindName = {"write", "take"};
constexpr std::array<const char*, 2> kOpSpan = {"op.write", "op.take"};

/// In-op cycle owners, by the chain position that answered the cycle.
enum Responder { kClient = 0, kServer = 1, kCbr = 2, kIdle = 3 };
constexpr std::array<const char*, 4> kResponderName = {"client", "server",
                                                       "cbr", "idle"};

Responder responder_of(int chain_position) {
  switch (chain_position) {
    case 0: return kClient;  // Slave1
    case 2: return kServer;  // Slave3
    case 1:                  // Slave2: CBR source
    case 3: return kCbr;     // Slave4: CBR sink
    default: return kIdle;   // nobody answered
  }
}

cosim::ScenarioConfig scenario_config(std::uint64_t seed) {
  cosim::ScenarioConfig config;  // default calibration, XML, 1-wire
  config.seed = seed;
  return config;
}

net::CbrParams cbr_params() {
  net::CbrParams params;
  params.rate_bytes_per_sec = 0.3;
  params.packet_size = 1;
  return params;
}

struct Fig7Rig {
  explicit Fig7Rig(std::uint64_t seed)
      : scenario(scenario_config(seed)),
        client(scenario.add_client(/*slave_index=*/0)),
        cbr(scenario.sim(), scenario.slave(1), scenario.node_id(3),
            cbr_params()),
        sink(scenario.sim(), scenario.slave(3)),
        rng(util::Xoshiro256(seed).fork(0xF167)) {
    scenario.start();
    cbr.start();
  }
  /// Winds down, so no coroutine frame outlives the simulator.
  ~Fig7Rig() { wind_down(); }
  Fig7Rig(const Fig7Rig&) = delete;
  Fig7Rig& operator=(const Fig7Rig&) = delete;

  sim::Simulator& sim() { return scenario.sim(); }

  /// Lets the board client finish its current op, then stops the relay.
  void wind_down() {
    stop = true;
    for (int i = 0; i < 100 && !stopped; ++i) {
      sim().run_until(sim().now() + sim::Time::sec(60));
    }
    scenario.shutdown();
  }

  void begin_op(Kind kind, const mw::Message& probe) {
    op_kind = kind;
    op_start = sim().now();
    op_events_start = sim().executed_events();
    ++op_id;
    if (spans != nullptr) {
      op_span = spans->open(kOpSpan[kind], SpanClock::kSim,
                            op_start.count_ns(), op_id);
      codec.probe(scenario.codec(), probe, *spans, op_id);
    }
    op_in_flight = true;
  }

  void end_op(bool ok) {
    op_in_flight = false;
    if (spans != nullptr) spans->close(op_span, sim().now().count_ns());
    if (!ok) ++failed;
    if (!measuring) return;
    ++ops;
    const double ms = ok ? (sim().now() - op_start).seconds() * 1e3 : kFailedMs;
    sim_ms[op_kind].push_back(ms);
    op_events.push_back(
        static_cast<double>(sim().executed_events() - op_events_start));
  }

  void on_cycle(const wire::CycleTrace& cycle) {
    if (spans == nullptr || !op_in_flight || cycle.start < op_start) return;
    const Responder who = responder_of(cycle.responder);
    share_ns[op_kind][who] += static_cast<double>((cycle.end - cycle.start).count_ns());
    spans->add("wire.cycle", SpanClock::kSim, cycle.start.count_ns(),
               cycle.end.count_ns(), op_id, op_span, kResponderName[who]);
  }

  obs::Registry registry;  ///< bound by the traced window; outlives the stack
  cosim::WireScenario scenario;
  mw::SpaceClient& client;
  net::WireCbrSource cbr;
  net::WireSink sink;
  util::Xoshiro256 rng;

  bool measuring = false;
  bool stop = false;
  bool stopped = false;
  std::uint64_t ops = 0;     ///< completed in the measured window
  std::uint64_t failed = 0;  ///< failed anywhere in the run
  std::array<std::vector<double>, 2> sim_ms;
  /// Sim events while each op was in flight: its host cost, in events.
  std::vector<double> op_events;

  Kind op_kind = kWrite;
  bool op_in_flight = false;
  sim::Time op_start;
  std::uint64_t op_events_start = 0;
  std::uint64_t op_id = 0;

  // Traced window only.
  SpanBuffer* spans = nullptr;
  std::uint32_t op_span = 0;
  std::array<std::array<double, 4>, 2> share_ns{};
  CodecProbe codec;
};

sim::Task<void> board_client(Fig7Rig& rig) {
  for (std::int64_t seq = 0; !rig.stop; ++seq) {
    const auto payload = static_cast<std::size_t>(rig.rng.uniform(64, 480));
    const double think_s = rig.rng.exponential(2.0);
    std::vector<std::uint8_t> blob(payload);
    for (std::size_t i = 0; i < payload; ++i) {
      blob[i] = static_cast<std::uint8_t>(seq * 31 + static_cast<std::int64_t>(i) * 7);
    }
    const space::Tuple entry = space::make_tuple("entry", seq, blob);

    mw::Message write_probe;
    write_probe.type = mw::MsgType::kWriteRequest;
    write_probe.request_id = static_cast<std::uint64_t>(seq) + 1;
    write_probe.tuple = entry;
    write_probe.duration_ns = kLease.count_ns();
    rig.begin_op(kWrite, write_probe);
    const mw::SpaceClient::WriteResult wrote =
        co_await rig.client.write(entry, kLease);
    rig.end_op(wrote.ok && wrote.lease.valid());

    co_await sim::delay(rig.sim(), sim::Time::from_seconds(think_s));

    std::vector<space::FieldPattern> fields;
    fields.push_back(space::FieldPattern::exact(space::Value(seq)));
    fields.push_back(space::FieldPattern::exact(space::Value(blob)));
    space::Template exact(std::string("entry"), std::move(fields));
    mw::Message take_probe;
    take_probe.type = mw::MsgType::kTakeRequest;
    take_probe.request_id = static_cast<std::uint64_t>(seq) + 1;
    take_probe.tmpl = exact;
    take_probe.duration_ns = kTakeWait.count_ns();
    rig.begin_op(kTake, take_probe);
    const std::optional<space::Tuple> taken =
        co_await rig.client.take(std::move(exact), kTakeWait);
    rig.end_op(taken.has_value() && *taken == entry);
  }
  rig.stopped = true;
}

/// Counter readings the per-layer ratios are deltas of.
struct Counters {
  std::uint64_t events = 0;
  wire::BusModel::Stats bus;
  std::uint64_t relay_bytes = 0;
  std::uint64_t cbr_delivered = 0;
  mw::SpaceClient::Stats client;
  mw::NodeCore::Stats server;
  space::SpaceEngine::Stats space;

  static Counters read(Fig7Rig& rig) {
    Counters c;
    c.events = rig.sim().executed_events();
    c.bus = rig.scenario.bus().stats();
    c.relay_bytes = rig.scenario.relay().stats().bytes_drained;
    c.cbr_delivered = rig.sink.segments_received();
    c.client = rig.client.stats();
    c.server = rig.scenario.server().stats();
    c.space = rig.scenario.space().stats();
    return c;
  }
};

/// Table 4 at default calibration: (wires, CBR B/s) -> paper seconds, with
/// -1 for the paper's "Out of Time" cell.
struct Table4Cell {
  int wires;
  double cbr;
  double paper_s;
};
constexpr std::array<Table4Cell, 6> kTable4 = {{{1, 0.0, 140},
                                                {2, 0.0, 116},
                                                {1, 0.3, 151},
                                                {2, 0.3, 122},
                                                {1, 1.0, -1},
                                                {2, 1.0, 129}}};

/// Mean absolute % error of the numeric cells; gates the OoT cell.
double table4_error_pct(RunReport& report) {
  double err = 0;
  int cells = 0;
  for (const Table4Cell& cell : kTable4) {
    cosim::ImpactConfig config;
    config.set_wires(cell.wires);
    config.cbr_rate_bps = cell.cbr;
    const cosim::ImpactResult result = cosim::run_impact(config);
    const std::string where = "table4 " + std::to_string(cell.wires) +
                              "-wire @" + std::to_string(cell.cbr) + " B/s";
    report.gate(result.completed, where + " did not finish");
    if (cell.paper_s < 0) {
      report.gate(result.out_of_time, where + " should be Out of Time");
      continue;
    }
    report.gate(!result.out_of_time, where + " ran Out of Time");
    err += std::abs(result.total.seconds() - cell.paper_s) / cell.paper_s;
    ++cells;
  }
  return 100.0 * err / cells;
}

}  // namespace

void run_fig7(const Args& args, RunReport& report) {
  auto set_up = [&args] {
    auto rig = std::make_unique<Fig7Rig>(args.seed);
    sim::spawn(board_client(*rig));
    rig->sim().run_until(
        sim::Time::from_seconds(kWarmupSimSeconds * args.scale));
    return rig;
  };
  const std::int64_t t0 = host_ns();
  std::unique_ptr<Fig7Rig> rig = set_up();
  const double setup_s = static_cast<double>(host_ns() - t0) * 1e-9;

  // Tracing splits the window: the untraced half gives the counters and
  // the overhead baseline, the traced half gives spans and shares.
  const double half = args.trace ? 2 : 1;
  const double window_s = args.seconds * kSimSecondsPerSecond / half;
  const sim::Time window = sim::Time::from_seconds(window_s);
  const int slices = static_cast<int>(window_s / kSliceSimSeconds);
  const int samples = sample_count(args.seconds / half);

  const Counters before = Counters::read(*rig);
  rig->measuring = true;
  const SimWindow measured = run_window(rig->sim(), window, slices, samples);
  rig->measuring = false;
  const Counters after = Counters::read(*rig);
  const double peak_rss = peak_rss_mb();

  const auto ops = static_cast<double>(rig->ops);
  const double ns_per_event = median(measured.ns_per_event);
  const double host_s = ns_per_event * measured.events * 1e-9;
  std::vector<double> all_ms = rig->sim_ms[kWrite];
  all_ms.insert(all_ms.end(), rig->sim_ms[kTake].begin(),
                rig->sim_ms[kTake].end());
  report.ops = rig->ops;
  report.latency_samples = all_ms.size();
  report.set("ops_per_host_s", per(ops, host_s));
  report.set("host_op_p50_us", median(rig->op_events) * ns_per_event * 1e-3);
  report.set("host_op_p99_us",
             percentile(rig->op_events, 99) * ns_per_event * 1e-3);
  report.set("peak_rss_mb", peak_rss);
  report.set("sim.op_p50_ms", percentile(all_ms, 50));
  report.set("sim.op_p99_ms", percentile(all_ms, 99));
  if (!args.trace) report.set_samples(all_ms);

  const auto events = static_cast<double>(after.events - before.events);
  const auto cycles = static_cast<double>(after.bus.cycles - before.bus.cycles);
  report.set("sim.events_per_op", per(events, ops));
  report.set("sim.host_ns_per_event", ns_per_event);
  report.set("sim.peak_pending",
             static_cast<double>(rig->sim().peak_pending_events()));
  report.set("sim.ops_per_sim_s", per(ops, measured.sim_s));
  report.set("wire.cycles_per_op", per(cycles, ops));
  report.set("wire.relay_bytes_per_op",
             per(static_cast<double>(after.relay_bytes - before.relay_bytes),
                 ops));
  report.set("wire.host_ns_per_cycle", per(host_s * 1e9, cycles));
  report.set("wire.utilization",
             per((after.bus.busy_time - before.bus.busy_time).seconds(),
                 measured.sim_s));
  report.set("wire.cycle_fail_ratio",
             per(static_cast<double>(
                     (after.bus.timeouts - before.bus.timeouts) +
                     (after.bus.crc_errors - before.bus.crc_errors)),
                 cycles));
  report.set("net.cbr_delivered_per_s",
             per(static_cast<double>(after.cbr_delivered - before.cbr_delivered),
                 measured.sim_s));
  report.set("mw.bytes_per_op",
             per(static_cast<double>(
                     (after.client.bytes_encoded - before.client.bytes_encoded) +
                     (after.client.bytes_decoded - before.client.bytes_decoded)),
                 ops));
  for (Kind kind : {kWrite, kTake}) {
    const std::string k = kKindName[kind];
    report.set("mw.rpc_sim_ms_p50." + k, percentile(rig->sim_ms[kind], 50));
    report.set("mw.rpc_sim_ms_p99." + k, percentile(rig->sim_ms[kind], 99));
  }
  report.set("mw.retransmissions_per_op",
             per(static_cast<double>(after.client.retransmissions -
                                     before.client.retransmissions),
                 ops));
  report.set("mw.rpc_failures",
             static_cast<double>(after.client.rpc_failures -
                                 before.client.rpc_failures));
  report.set("mw.node.queue_waits_per_op",
             per(static_cast<double>(
                     (after.server.pipeline_queued - before.server.pipeline_queued) +
                     (after.server.admission_queued - before.server.admission_queued)),
                 ops));
  report.set("mw.node.peak_in_service",
             static_cast<double>(rig->scenario.server().peak_in_service()));
  const auto matched = static_cast<double>(
      (after.space.reads - before.space.reads) +
      (after.space.takes - before.space.takes));
  report.set("space.scan_steps_per_op",
             per(static_cast<double>(after.space.scan_steps -
                                     before.space.scan_steps),
                 ops));
  report.set("space.hit_ratio",
             per(matched, matched + static_cast<double>(after.space.misses -
                                                        before.space.misses)));

  if (args.trace) {
    // Slice spans get their own buffer, so they cover the whole window
    // after the op and cycle spans have filled theirs.
    SpanBuffer spans(kSpanCapacity);
    SpanBuffer slice_spans(static_cast<std::size_t>(slices));
    obs::Registry& registry = rig->registry;
    rig->sim().bind_metrics(registry);
    wire::bind_metrics(registry, rig->scenario.bus());
    wire::bind_metrics(registry, rig->scenario.master());
    rig->client.bind_metrics(registry);
    rig->scenario.server().bind_metrics(registry, "mw.node");
    rig->scenario.space().bind_metrics(registry);
    rig->scenario.bus().on_cycle().connect(
        [r = rig.get()](const wire::CycleTrace& cycle) { r->on_cycle(cycle); });
    rig->spans = &spans;
    const SimWindow traced =
        run_window(rig->sim(), window, slices, samples, &slice_spans);
    rig->spans = nullptr;
    // Host cost per simulated event, traced vs untraced (op counts of the
    // two halves differ; event cost does not).
    report.set("trace.overhead_pct",
               100.0 * (per(median(traced.ns_per_event), ns_per_event) - 1.0));
    report.set("mw.codec_encode_ns", median(rig->codec.encode_ns));
    report.set("mw.codec_decode_ns", median(rig->codec.decode_ns));
    report.gate(rig->codec.mismatches == 0, "codec probe did not round-trip");

    std::array<double, 4> total{};
    std::vector<std::vector<std::string>> rows;
    for (Kind kind : {kWrite, kTake}) {
      double kind_total = 0;
      for (int who = 0; who < 4; ++who) kind_total += rig->share_ns[kind][who];
      std::vector<std::string> row = {kKindName[kind]};
      for (int who = 0; who < 4; ++who) {
        total[who] += rig->share_ns[kind][who];
        row.push_back(std::to_string(100.0 * per(rig->share_ns[kind][who], kind_total)));
      }
      row.push_back(std::to_string(kind_total * 1e-9));
      rows.push_back(std::move(row));
    }
    double all = 0;
    for (double t : total) all += t;
    for (int who = 0; who < 4; ++who) {
      report.set(std::string("wire.share.") + kResponderName[who],
                 per(total[who], all));
    }
    report.add_table("where_sim_time_goes",
                     {"op", "client_%", "server_%", "cbr_%", "idle_%",
                      "in_op_cycle_s"},
                     std::move(rows));
    report.add_spans(slice_spans);
    report.add_spans(spans);
    report.add_registry(registry.snapshot(), "fig7_bitwire");
  }

  rig->wind_down();
  report.gate(rig->stopped, "board client did not stop");
  report.ops_failed += rig->failed;
  rig->scenario.checker().finish();
  report.gate(rig->scenario.checker().ok(), rig->scenario.checker().report());
  report.set("cosim.table4_err_pct", table4_error_pct(report));
  rig.reset();
  if (!args.trace) report.set("setup_s", median_setup_s(setup_s, set_up));
}

}  // namespace perf
