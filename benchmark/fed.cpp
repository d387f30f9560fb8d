// fed_replicated: a 4-node federation plus a replication standby on one sim
// kernel, driven by 4 producer and 4 consumer FederatedClient routers.
//
// Nodes talk over 200 us loopback with the binary codec and serve at most 2
// requests at once. The primary forwards its share to the standby and
// withholds each ack until the standby confirms. Producers write 16-256 B
// jobs under 256 names of Zipf(1.1) popularity with a forever lease;
// consumers make 70% named and 30% wildcard blocking takes (25 ms timeout).
// Every router is a closed loop behind a timing svc::SpaceApi decorator;
// producers think 6 ms (exponential mean) between writes.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "src/fed/cluster.hpp"
#include "src/sim/process.hpp"
#include "src/space/oplog.hpp"
#include "src/svc/space_api.hpp"

namespace perf {
namespace {

using namespace tb;

/// Simulated length measured per requested second: about 50k ops. The window
/// is measured in rounds of one requested second, each on a fresh cluster,
/// because every node's OpLog keeps every op (about 0.8 kB each): one long
/// window would hold gigabytes. A round's set-up, drain and oracle replay
/// cost about as much host time as its window, so on a 4-core x86 host a
/// round takes about one second in all.
constexpr double kSimSecondsPerSecond = 55.0;
constexpr double kWarmupSimSeconds = 10.0;
constexpr std::size_t kSpanCapacity = 200'000;

constexpr int kNodes = 4;
constexpr int kProducers = 4;
constexpr int kConsumers = 4;
constexpr int kNames = 256;
constexpr double kZipfS = 1.1;
constexpr double kNamedTakeShare = 0.7;
/// Producer think time between writes (exponential mean, s): keeps the
/// offered load under the consumers' capacity so the store stays bounded.
constexpr double kProducerThinkS = 0.006;
const sim::Time kTakeTimeout = sim::Time::ms(25);

enum Kind { kNamed = 0, kWildcard = 1 };
constexpr std::array<const char*, 2> kKindName = {"named", "wildcard"};

/// What the timing decorators record into.
struct OpRecorder {
  bool measuring = false;
  std::uint64_t ops = 0;
  std::uint64_t misses = 0;  ///< takes that timed out
  std::array<std::vector<double>, 2> sim_ms;
  /// Sim events while each op was in flight: its host cost, in events.
  std::vector<double> op_events;

  // Traced window only.
  SpanBuffer* spans = nullptr;
  const mw::Codec* codec = nullptr;
  std::uint64_t next_op = 0;
  CodecProbe codec_probe;

  /// Times the codec on the op's equivalent request; returns the op id.
  std::uint64_t probe(const mw::Message& message) {
    codec_probe.probe(*codec, message, *spans, ++next_op);
    return next_op;
  }
};

/// svc::SpaceApi decorator around one router: times every call on the
/// simulated and host clocks, per kind (named / wildcard).
class TimedApi final : public svc::SpaceApi {
 public:
  TimedApi(fed::FederatedClient& inner, OpRecorder& rec)
      : inner_(&inner), rec_(&rec) {}

  sim::Task<bool> write(space::Tuple tuple, sim::Time lease) override {
    const util::Status status = co_await write_status(std::move(tuple), lease);
    co_return status.ok();
  }

  sim::Task<util::Status> write_status(space::Tuple tuple,
                                       sim::Time lease) override {
    std::uint32_t span = 0;
    if (rec_->spans != nullptr) {
      mw::Message probe;
      probe.type = mw::MsgType::kWriteRequest;
      probe.tuple = tuple;
      probe.duration_ns = INT64_MAX;
      span = rec_->spans->open("fed.write", SpanClock::kSim,
                               simulator().now().count_ns(),
                               rec_->probe(probe));
    }
    const Start start = begin();
    const util::Status status =
        co_await inner_->write_status(std::move(tuple), lease);
    end(start, kNamed, span, status.ok() ? kDone : kFailed);
    co_return status;
  }

  sim::Task<std::optional<space::Tuple>> take(space::Template tmpl,
                                              sim::Time timeout) override {
    const Kind kind = tmpl.name.has_value() ? kNamed : kWildcard;
    std::uint32_t span = 0;
    if (rec_->spans != nullptr) {
      mw::Message probe;
      probe.type = mw::MsgType::kTakeRequest;
      probe.tmpl = tmpl;
      probe.duration_ns = timeout.count_ns();
      span = rec_->spans->open(
          kind == kNamed ? "fed.take.named" : "fed.take.wildcard",
          SpanClock::kSim, simulator().now().count_ns(), rec_->probe(probe));
    }
    const Start start = begin();
    std::optional<space::Tuple> result =
        co_await inner_->take(std::move(tmpl), timeout);
    end(start, kind, span, result.has_value() ? kDone : kTimedOut);
    co_return result;
  }

  sim::Task<std::optional<space::Tuple>> read(space::Template tmpl,
                                              sim::Time timeout) override {
    co_return co_await inner_->read(std::move(tmpl), timeout);
  }

  sim::Simulator& simulator() override { return inner_->simulator(); }

 private:
  struct Start {
    sim::Time sim;
    std::uint64_t events = 0;
  };
  Start begin() {
    return Start{simulator().now(), simulator().executed_events()};
  }
  enum Outcome { kDone, kTimedOut, kFailed };

  /// A take that times out counts as an op but not in the latency samples:
  /// its latency is the caller's deadline. A failed op samples as +inf.
  void end(const Start& start, Kind kind, std::uint32_t span,
           Outcome outcome) {
    const sim::Time now = simulator().now();
    if (rec_->spans != nullptr) rec_->spans->close(span, now.count_ns());
    if (!rec_->measuring) return;
    ++rec_->ops;
    if (outcome == kTimedOut) {
      ++rec_->misses;
      return;
    }
    rec_->sim_ms[kind].push_back(
        outcome == kFailed ? kFailedMs : (now - start.sim).seconds() * 1e3);
    rec_->op_events.push_back(
        static_cast<double>(simulator().executed_events() - start.events));
  }

  fed::FederatedClient* inner_;
  OpRecorder* rec_;
};

fed::ClusterConfig cluster_config() {
  fed::ClusterConfig config;
  config.nodes = kNodes;
  config.with_standby = true;
  config.one_way_delay = sim::Time::us(200);
  config.server.max_service_slots = 2;  // admission queue unbounded
  return config;
}

std::uint64_t job_key(std::int64_t producer, std::int64_t seq) {
  return (static_cast<std::uint64_t>(producer) << 48) |
         static_cast<std::uint64_t>(seq);
}

std::uint8_t blob_byte(std::int64_t producer, std::int64_t seq,
                       std::size_t i) {
  return static_cast<std::uint8_t>(producer * 131 + seq * 31 +
                                   static_cast<std::int64_t>(i));
}

space::Template job_template(std::optional<std::string> name) {
  std::vector<space::FieldPattern> fields;
  fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
  fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
  fields.push_back(space::FieldPattern::typed(space::ValueType::kBytes));
  return space::Template(std::move(name), std::move(fields));
}

struct FedRig {
  FedRig(std::uint64_t seed, OpRecorder& rec)
      : sim(seed), cluster(sim, cluster_config()), rng(seed), zipf(kNames, kZipfS) {
    for (int i = 0; i < kNames; ++i) names.push_back("job-" + std::to_string(i));
    for (int i = 0; i < kProducers + kConsumers; ++i) {
      routers.push_back(cluster.make_router());
      apis.push_back(std::make_unique<TimedApi>(*routers.back(), rec));
    }
  }

  /// Checks a taken job against what was written and retires it.
  void consume(const space::Tuple& job, int expected_name) {
    const bool shaped = job.arity() == 3 && job.fields[0].is(space::ValueType::kInt) &&
                        job.fields[1].is(space::ValueType::kInt) &&
                        job.fields[2].is(space::ValueType::kBytes);
    const auto it = shaped ? outstanding.find(job_key(job.fields[0].as_int(),
                                                      job.fields[1].as_int()))
                           : outstanding.end();
    if (it == outstanding.end()) {  // unknown, or taken twice
      ++bad_takes;
      return;
    }
    bool ok = job.name == names[it->second] &&
              (expected_name < 0 || expected_name == it->second);
    const std::vector<std::uint8_t>& blob = job.fields[2].as_bytes();
    for (std::size_t i = 0; ok && i < blob.size(); ++i) {
      ok = blob[i] == blob_byte(job.fields[0].as_int(), job.fields[1].as_int(), i);
    }
    if (!ok) ++bad_takes;
    outstanding.erase(it);
    ++consumed;
  }

  obs::Registry registry;  ///< bound by the traced window; outlives the stack
  sim::Simulator sim;
  fed::SimCluster cluster;
  util::Xoshiro256 rng;
  Zipf zipf;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<fed::FederatedClient>> routers;
  std::vector<std::unique_ptr<TimedApi>> apis;

  bool stop = false;
  int running = 0;
  /// Jobs written and not yet taken: key -> name index.
  std::unordered_map<std::uint64_t, int> outstanding;
  std::uint64_t acked = 0;
  std::uint64_t consumed = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t bad_takes = 0;
};

sim::Task<void> producer(FedRig& rig, int index, util::Xoshiro256 rng) {
  svc::SpaceApi& api = *rig.apis[static_cast<std::size_t>(index)];
  for (std::int64_t seq = 0; !rig.stop; ++seq) {
    const int name = rig.zipf.draw(rng);
    const auto size = static_cast<std::size_t>(rng.uniform(16, 256));
    std::vector<std::uint8_t> blob(size);
    for (std::size_t i = 0; i < size; ++i) blob[i] = blob_byte(index, seq, i);
    space::Tuple job = space::make_tuple(
        rig.names[static_cast<std::size_t>(name)],
        static_cast<std::int64_t>(index), seq, std::move(blob));
    // Registered before the write: a consumer may take the job before the
    // replication-gated ack comes back.
    rig.outstanding.emplace(job_key(index, seq), name);
    const util::Status wrote =
        co_await api.write_status(std::move(job), space::kLeaseForever);
    if (wrote.ok()) {
      ++rig.acked;
    } else {
      ++rig.write_failures;
    }
    co_await sim::delay(rig.sim,
                        sim::Time::from_seconds(rng.exponential(kProducerThinkS)));
  }
  --rig.running;
}

sim::Task<void> consumer(FedRig& rig, int index, util::Xoshiro256 rng) {
  svc::SpaceApi& api = *rig.apis[static_cast<std::size_t>(index)];
  while (!rig.stop) {
    int name = -1;
    std::optional<std::string> tmpl_name;
    if (rng.bernoulli(kNamedTakeShare)) {
      name = rig.zipf.draw(rng);
      tmpl_name = rig.names[static_cast<std::size_t>(name)];
    }
    const std::optional<space::Tuple> job =
        co_await api.take(job_template(std::move(tmpl_name)), kTakeTimeout);
    if (job.has_value()) rig.consume(*job, name);
  }
  --rig.running;
}

/// Wildcard drain outside the measured window: empties the cluster.
sim::Task<void> drain(FedRig& rig, bool& done) {
  while (true) {
    const std::optional<space::Tuple> job =
        co_await rig.routers.front()->take(job_template(std::nullopt),
                                           sim::Time::zero());
    if (!job.has_value()) break;
    rig.consume(*job, -1);
  }
  done = true;
}

void start_loops(FedRig& rig) {
  for (int p = 0; p < kProducers; ++p) {
    ++rig.running;
    sim::spawn(producer(rig, p, rig.rng.fork(static_cast<std::uint64_t>(p))));
  }
  for (int c = 0; c < kConsumers; ++c) {
    ++rig.running;
    sim::spawn(consumer(rig, kProducers + c,
                        rig.rng.fork(static_cast<std::uint64_t>(kProducers + c))));
  }
}

/// Counters the per-layer ratios are deltas of, summed over the router
/// channels, the nodes (ring nodes and standby) and the routers.
enum Counter {
  kEvents,
  kBytes,
  kRetransmissions,
  kRpcFailures,
  kQueueWaits,
  kPrimaryForwards,
  kRoutedWrites,
  kMatched,
  kMisses,
  kScanSteps,
  kWildcardMatches,
  kPeeks,
  kDirectedTakes,
  kDirectedTakeMisses,
  kPolls,
  kMisrouteRefreshes,
  kCounterCount,
};
using Counters = std::array<double, kCounterCount>;

Counters read_counters(FedRig& rig) {
  Counters c{};
  c[kEvents] = static_cast<double>(rig.sim.executed_events());
  std::vector<mw::NodeCore*> cores;
  for (std::size_t i = 0; i < rig.cluster.node_count(); ++i) {
    cores.push_back(&rig.cluster.core(i));
    const mw::SpaceClient::Stats& ch =
        rig.cluster.channel(rig.cluster.node_id(i)).stats();
    c[kBytes] += static_cast<double>(ch.bytes_encoded + ch.bytes_decoded);
    c[kRetransmissions] += static_cast<double>(ch.retransmissions);
    c[kRpcFailures] += static_cast<double>(ch.rpc_failures);
  }
  cores.push_back(&rig.cluster.standby_core());
  for (mw::NodeCore* core : cores) {
    const mw::NodeCore::Stats& s = core->stats();
    c[kQueueWaits] += static_cast<double>(s.pipeline_queued + s.admission_queued);
    const space::SpaceEngine::Stats& e = core->space().stats();
    c[kMatched] += static_cast<double>(e.reads + e.takes);
    c[kMisses] += static_cast<double>(e.misses);
    c[kScanSteps] += static_cast<double>(e.scan_steps);
  }
  c[kPrimaryForwards] =
      static_cast<double>(rig.cluster.core(0).stats().replication_forwards);
  for (const auto& router : rig.routers) {
    const fed::FederatedClient::Stats& r = router->stats();
    c[kRoutedWrites] += static_cast<double>(r.routed_writes);
    c[kWildcardMatches] += static_cast<double>(r.wildcard_matches);
    c[kPeeks] += static_cast<double>(r.peeks_sent);
    c[kDirectedTakes] += static_cast<double>(r.directed_takes);
    c[kDirectedTakeMisses] += static_cast<double>(r.directed_take_misses);
    c[kPolls] += static_cast<double>(r.polls);
    c[kMisrouteRefreshes] += static_cast<double>(r.misroute_refreshes);
  }
  return c;
}

double peak_in_service(FedRig& rig) {
  std::size_t peak = rig.cluster.standby_core().peak_in_service();
  for (std::size_t i = 0; i < rig.cluster.node_count(); ++i) {
    peak = std::max(peak, rig.cluster.core(i).peak_in_service());
  }
  return static_cast<double>(peak);
}

void bind_registry(FedRig& rig) {
  obs::Registry& registry = rig.registry;
  rig.sim.bind_metrics(registry);
  for (std::size_t i = 0; i < rig.cluster.node_count(); ++i) {
    const std::string node = "node" + std::to_string(rig.cluster.node_id(i));
    rig.cluster.core(i).bind_metrics(registry, "mw." + node);
    rig.cluster.core(i).space().bind_metrics(registry, "space." + node);
    rig.cluster.channel(rig.cluster.node_id(i))
        .bind_metrics(registry, "mw.client." + node);
  }
  const std::string standby = "node" + std::to_string(rig.cluster.standby_id());
  rig.cluster.standby_core().bind_metrics(registry, "mw." + standby);
  rig.cluster.standby_core().space().bind_metrics(registry, "space." + standby);
}

std::unique_ptr<FedRig> set_up(std::uint64_t seed, double scale,
                               OpRecorder& rec) {
  auto rig = std::make_unique<FedRig>(seed, rec);
  start_loops(*rig);
  rig->sim.run_until(sim::Time::from_seconds(kWarmupSimSeconds * scale));
  return rig;
}

/// Stops the loops, drains the cluster, then checks the books.
void check_books(FedRig& rig, RunReport& report) {
  rig.stop = true;
  for (int i = 0; i < 100 && rig.running > 0; ++i) {
    rig.sim.run_until(rig.sim.now() + sim::Time::sec(1));
  }
  report.gate(rig.running == 0, "router loops did not stop");
  bool drained = false;
  sim::spawn(drain(rig, drained));
  for (int i = 0; i < 1000 && !drained; ++i) {
    rig.sim.run_until(rig.sim.now() + sim::Time::sec(1));
  }
  report.gate(drained, "wildcard drain did not finish");
  report.ops_failed += rig.write_failures + rig.bad_takes;
  report.ops_failed += static_cast<std::uint64_t>(read_counters(rig)[kRpcFailures]);
  report.gate(rig.acked == rig.consumed,
              "acked " + std::to_string(rig.acked) + " != consumed " +
                  std::to_string(rig.consumed));
  report.gate(rig.outstanding.empty(), "written jobs never taken");
  space::OpLog merged;
  rig.cluster.merge_oplogs(merged);
  const std::vector<space::Tuple> final_state = rig.cluster.merged_final_state();
  report.gate(final_state.empty(),
              "residual " + std::to_string(final_state.size()) + " tuples");
  const space::ReplayReport oracle = space::replay_against_oracle(
      merged, cluster_config().space, final_state);
  report.gate(oracle.equivalent, "oracle: " + oracle.divergence);
}

}  // namespace

void run_fed(const Args& args, RunReport& report) {
  const int rounds = std::max(1, static_cast<int>(std::lround(args.seconds)));
  const double round_s = args.seconds / rounds;
  const sim::Time window =
      sim::Time::from_seconds(round_s * kSimSecondsPerSecond);
  const int samples = sample_count(round_s);

  OpRecorder rec;
  Counters totals{};  ///< over the measured rounds
  std::vector<double> ns_per_event;
  std::vector<double> setup_s;
  double peak_pending = 0;
  double peak_serving = 0;
  std::size_t peak_outstanding = 0;
  // Every round seeds its own cluster; a traced run adds one traced round.
  util::Xoshiro256 seeds(args.seed);
  for (int r = 0; r < rounds + (args.trace ? 1 : 0); ++r) {
    const std::uint64_t seed = r == 0 ? args.seed : seeds.next_u64();
    const std::int64_t t0 = host_ns();
    std::unique_ptr<FedRig> rig = set_up(seed, args.scale, rec);
    setup_s.push_back(static_cast<double>(host_ns() - t0) * 1e-9);

    if (r == rounds) {  // the traced round
      SpanBuffer spans(kSpanCapacity);
      bind_registry(*rig);
      mw::BinaryCodec codec;
      rec.codec = &codec;
      rec.spans = &spans;
      const SimWindow traced = run_window(rig->sim, window, samples, samples);
      rec.spans = nullptr;
      rec.codec = nullptr;
      // Host cost per simulated event, traced vs untraced.
      report.set("trace.overhead_pct",
                 100.0 * (per(median(traced.ns_per_event), median(ns_per_event)) -
                          1.0));
      report.set("mw.codec_encode_ns", median(rec.codec_probe.encode_ns));
      report.set("mw.codec_decode_ns", median(rec.codec_probe.decode_ns));
      report.gate(rec.codec_probe.mismatches == 0,
                  "codec probe did not round-trip");
      report.add_spans(spans);
      report.add_registry(rig->registry.snapshot(), "fed_replicated");
    } else {
      const Counters before = read_counters(*rig);
      rec.measuring = true;
      const SimWindow measured = run_window(rig->sim, window, samples, samples);
      rec.measuring = false;
      const Counters after = read_counters(*rig);
      for (int c = 0; c < kCounterCount; ++c) totals[c] += after[c] - before[c];
      ns_per_event.insert(ns_per_event.end(), measured.ns_per_event.begin(),
                          measured.ns_per_event.end());
      peak_pending = std::max(
          peak_pending, static_cast<double>(rig->sim.peak_pending_events()));
      peak_serving = std::max(peak_serving, peak_in_service(*rig));
      peak_outstanding = std::max(peak_outstanding, rig->outstanding.size());
    }
    check_books(*rig, report);
  }
  report.add_param("rounds", obs::JsonValue(static_cast<std::int64_t>(rounds)));
  report.add_param("take_misses", obs::JsonValue(rec.misses));
  report.add_param("peak_outstanding_at_window_end",
                   obs::JsonValue(static_cast<std::uint64_t>(peak_outstanding)));

  const auto ops = static_cast<double>(rec.ops);
  const double cost = median(ns_per_event);
  std::vector<double> all_ms = rec.sim_ms[kNamed];
  all_ms.insert(all_ms.end(), rec.sim_ms[kWildcard].begin(),
                rec.sim_ms[kWildcard].end());
  report.ops = rec.ops;
  report.latency_samples = all_ms.size();
  report.set("ops_per_host_s", per(ops, cost * totals[kEvents] * 1e-9));
  report.set("host_op_p50_us", median(rec.op_events) * cost * 1e-3);
  report.set("host_op_p99_us", percentile(rec.op_events, 99) * cost * 1e-3);
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("sim.op_p50_ms", percentile(all_ms, 50));
  report.set("sim.op_p99_ms", percentile(all_ms, 99));
  if (!args.trace) report.set_samples(all_ms);

  report.set("sim.events_per_op", per(totals[kEvents], ops));
  report.set("sim.host_ns_per_event", cost);
  report.set("sim.peak_pending", peak_pending);
  report.set("sim.ops_per_sim_s", per(ops, rounds * window.seconds()));
  report.set("mw.bytes_per_op", per(totals[kBytes], ops));
  report.set("mw.retransmissions_per_op", per(totals[kRetransmissions], ops));
  report.set("mw.rpc_failures", totals[kRpcFailures]);
  report.set("mw.node.queue_waits_per_op", per(totals[kQueueWaits], ops));
  report.set("mw.node.peak_in_service", peak_serving);
  report.set("mw.node.replication_forwards_per_write",
             per(totals[kPrimaryForwards], totals[kRoutedWrites]));
  report.set("space.scan_steps_per_op", per(totals[kScanSteps], ops));
  report.set("space.hit_ratio",
             per(totals[kMatched], totals[kMatched] + totals[kMisses]));
  for (Kind kind : {kNamed, kWildcard}) {
    const std::string k = kKindName[kind];
    report.set("fed.op_sim_ms_p50." + k, percentile(rec.sim_ms[kind], 50));
    report.set("fed.op_sim_ms_p99." + k, percentile(rec.sim_ms[kind], 99));
  }
  report.set("fed.peeks_per_wildcard",
             per(totals[kPeeks], totals[kWildcardMatches]));
  report.set("fed.directed_take_miss_ratio",
             per(totals[kDirectedTakeMisses], totals[kDirectedTakes]));
  report.set("fed.polls_per_wildcard",
             per(totals[kPolls], totals[kWildcardMatches]));
  report.set("fed.misroute_refreshes", totals[kMisrouteRefreshes]);
}

}  // namespace perf
