// threaded_churn / threaded_readmostly: space::ThreadedSpaceEngine with 4
// shards and 2 client threads; no sim, wire or mw.
//
// churn:      1024 Zipf(1.1) keys; 49% named write, 49% named
//             take_if_exists of the client's own earlier writes' keys, 2%
//             wildcard take_if_exists; the store stays near empty.
// readmostly: 200k tuples preloaded over 4096 Zipf(1.1) keys (set-up);
//             90% read_if_exists, 4% write, 4% take, 2% wildcard
//             read_all(max = 16).
//
// Every tuple is (key, writer, seq). Each take marks (writer, seq) in a
// bitmap, so a tuple taken twice is caught; the final size must equal
// preload + writes - takes. The traced run records an OpLog on a second
// engine and replays it through the deterministic oracle.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "src/space/oplog.hpp"
#include "src/space/threaded.hpp"

namespace perf {
namespace {

using namespace tb;

constexpr int kShards = 4;
constexpr int kThreads = 2;
constexpr int kWriters = kThreads + 1;  ///< writer kThreads = the preloader
constexpr double kZipfS = 1.1;
constexpr std::uint64_t kWarmupOpsPerThread = 50'000;
/// Traced window: spans per client thread (the traced pass stops when full).
constexpr std::size_t kSpanCapacity = 50'000;
constexpr std::size_t kWildcardMax = 16;

enum Op { kWrite = 0, kTake = 1, kRead = 2, kWildcard = 3 };
constexpr std::array<const char*, 4> kOpName = {"write", "take", "read",
                                                "wildcard"};
constexpr std::array<const char*, 4> kOpSpan = {"space.write", "space.take",
                                                "space.read", "space.wildcard"};

struct Mix {
  int keys;
  std::size_t preload;
  std::array<double, 4> share;  ///< by Op; whole percents summing to 100
  bool wildcard_reads;          ///< read_all instead of take_if_exists
  /// A named take takes back the key of the client's oldest write not yet
  /// taken back, instead of drawing one. Independent draws would make each
  /// key's count a zero-drift random walk: the store would grow as the
  /// square root of the ops done, and the run's cost and memory with it.
  bool take_back;
  /// Measured ops per client thread per requested second. A fixed count,
  /// not a fixed time, so the store's history (and so peak_rss_mb) does not
  /// follow the host's speed. Sized so that a run, set-ups included, takes
  /// about --seconds on a 4-core x86 host.
  double ops_per_thread_per_s;
};

Mix mix_of(unsigned bit, double scale) {
  if (bit == kChurn) {
    return Mix{1024, 0, {0.49, 0.49, 0.0, 0.02}, false, true, 380e3};
  }
  return Mix{4096, static_cast<std::size_t>(200'000 * scale),
             {0.04, 0.04, 0.90, 0.02}, true, false, 240e3};
}

/// Taken-flags for one writer's tuples, indexed by seq. calloc'd so pages
/// nobody touches stay unmapped.
class TakenBitmap {
 public:
  static constexpr std::size_t kBits = std::size_t{1} << 28;
  TakenBitmap()
      : words_(static_cast<std::uint64_t*>(std::calloc(kBits / 64, 8))) {}
  ~TakenBitmap() { std::free(words_); }
  TakenBitmap(const TakenBitmap&) = delete;
  TakenBitmap& operator=(const TakenBitmap&) = delete;

  /// Marks seq taken; false when it already was (or is out of range).
  bool mark(std::int64_t seq) {
    const auto s = static_cast<std::uint64_t>(seq);
    if (seq < 0 || s >= kBits) return false;
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    return (std::atomic_ref<std::uint64_t>(words_[s / 64]).fetch_or(bit) &
            bit) == 0;
  }

 private:
  std::uint64_t* words_;
};

/// One engine plus the bookkeeping its correctness gates need.
struct Rig {
  Rig(const Mix& mix, space::OpLog* log)
      : engine(engine_config(), log), mix(mix) {
    engine.bind_metrics(registry);
    for (int k = 0; k < mix.keys; ++k) {
      keys.push_back("k" + std::to_string(k));
      std::vector<space::FieldPattern> fields;
      fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
      fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
      named.emplace_back(keys.back(), std::move(fields));
    }
    std::vector<space::FieldPattern> fields;
    fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
    fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
    wildcard = space::Template(std::nullopt, std::move(fields));
  }

  static space::SpaceConfig engine_config() {
    space::SpaceConfig config;
    config.execution_mode = space::ExecutionMode::kThreaded;
    config.shard_count = kShards;
    return config;
  }

  /// A taken tuple must carry a key and a (writer, seq) never taken before.
  bool retire(const space::Tuple& tuple) {
    if (tuple.arity() != 2 || !tuple.fields[0].is(space::ValueType::kInt) ||
        !tuple.fields[1].is(space::ValueType::kInt)) {
      return false;
    }
    const std::int64_t writer = tuple.fields[0].as_int();
    if (writer < 0 || writer >= kWriters) return false;
    return taken[static_cast<std::size_t>(writer)].mark(tuple.fields[1].as_int());
  }

  obs::Registry registry;  ///< declared first: outlives the engine
  space::ThreadedSpaceEngine engine;
  Mix mix;
  std::vector<std::string> keys;
  std::vector<space::Template> named;
  space::Template wildcard;
  std::array<TakenBitmap, kWriters> taken;
  std::array<std::int64_t, kWriters> next_seq{};
  std::uint64_t writes = 0;  ///< successful, over the rig's life
  std::uint64_t takes = 0;
  std::uint64_t failures = 0;
};

/// One client thread's share of a phase.
struct alignas(64) Worker {
  std::uint64_t ops = 0;
  std::int64_t busy_ns = 0;  ///< how long the loop ran
  std::array<LatencyHistogram, 4> by_op;
  std::uint64_t writes = 0;
  std::uint64_t takes = 0;
  std::uint64_t failures = 0;
  std::unique_ptr<SpanBuffer> spans;
};

void client_loop(Rig& rig, Worker& w, int thread, util::Xoshiro256 rng,
                 const Zipf& zipf, std::uint64_t op_limit) {
  const std::int64_t start = host_ns();
  // Op kinds come in shuffled decks of 100 that hold each kind's exact
  // share, so every 100 ops keep the mix.
  std::array<Op, 100> deck{};
  std::size_t dealt = 0;
  for (int op = 0; op < 4; ++op) {
    for (long c = std::lround(rig.mix.share[op] * 100); c > 0; --c) {
      deck[dealt++] = static_cast<Op>(op);
    }
  }
  // take_back: keys of this client's writes not yet taken back, oldest
  // first. A deck holds as many writes as takes, so this stays short.
  std::array<std::size_t, 256> pending{};
  std::size_t head = 0;
  std::size_t tail = 0;
  // Local, so the two clients never write a shared line inside the loop.
  std::int64_t seq = rig.next_seq[static_cast<std::size_t>(thread)];
  std::uint64_t n = 0;
  for (; n < op_limit; ++n) {
    const std::size_t d = n % deck.size();
    if (d == 0) {
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[rng.uniform(0, i)]);
      }
    }
    const Op op = deck[d];
    auto key = static_cast<std::size_t>(zipf.draw(rng));
    if (rig.mix.take_back && op == kWrite && tail - head < pending.size()) {
      pending[tail++ % pending.size()] = key;
    } else if (rig.mix.take_back && op == kTake && head != tail) {
      key = pending[head++ % pending.size()];
    }
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    bool ok = true;
    switch (op) {
      case kWrite: {
        space::Tuple tuple = space::make_tuple(
            rig.keys[key], static_cast<std::int64_t>(thread), seq++);
        t0 = host_ns();
        rig.engine.write(std::move(tuple));
        t1 = host_ns();
        ++w.writes;
        break;
      }
      case kTake: {
        t0 = host_ns();
        const std::optional<space::Tuple> got =
            rig.engine.take_if_exists(rig.named[key]);
        t1 = host_ns();
        if (got.has_value()) {
          ok = got->name == rig.keys[key] && rig.retire(*got);
          ++w.takes;
        }
        break;
      }
      case kRead: {
        t0 = host_ns();
        const std::optional<space::Tuple> got =
            rig.engine.read_if_exists(rig.named[key]);
        t1 = host_ns();
        ok = !got.has_value() || got->name == rig.keys[key];
        break;
      }
      case kWildcard: {
        if (rig.mix.wildcard_reads) {
          t0 = host_ns();
          const std::vector<space::Tuple> got =
              rig.engine.read_all(rig.wildcard, kWildcardMax);
          t1 = host_ns();
          ok = got.size() <= kWildcardMax;
        } else {
          t0 = host_ns();
          const std::optional<space::Tuple> got =
              rig.engine.take_if_exists(rig.wildcard);
          t1 = host_ns();
          if (got.has_value()) {
            ok = rig.retire(*got);
            ++w.takes;
          }
        }
        break;
      }
    }
    if (!ok) ++w.failures;
    w.by_op[op].record(static_cast<std::uint64_t>(t1 - t0));
    if (w.spans != nullptr) {
      const std::uint64_t op_id = (static_cast<std::uint64_t>(thread) << 40) | n;
      w.spans->add(kOpSpan[op], SpanClock::kHost, t0, t1, op_id);
      if (w.spans->full()) {
        ++n;
        break;
      }
    }
  }
  rig.next_seq[static_cast<std::size_t>(thread)] = seq;
  w.ops = n;
  w.busy_ns = host_ns() - start;
}

/// The process's allowed CPUs, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

void set_affinity(pthread_t thread, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(thread, sizeof set, &set);
}

/// Pins client thread `index` to the index-th allowed CPU. Unpinned, the
/// scheduler sometimes time-slices both clients on one CPU, which halves
/// their contention and flips op latency between two modes.
void pin_client(std::thread& thread, int index) {
  const std::vector<int> cpus = allowed_cpus();
  if (static_cast<int>(cpus.size()) <= kThreads) return;
  set_affinity(thread.native_handle(), {cpus[static_cast<std::size_t>(index)]});
}

struct Phase {
  std::array<Worker, kThreads> workers;
  std::uint64_t ops = 0;
  double host_s = 0;  ///< longest client loop
};

/// Runs both client threads until each has done `op_limit` ops. With
/// `traced`, each thread records one span per op and stops when its buffer
/// fills.
void run_phase(Rig& rig, Phase& phase, std::uint64_t seed,
               std::uint64_t op_limit, bool traced) {
  const Zipf zipf(rig.mix.keys, kZipfS);
  util::Xoshiro256 root(seed);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    Worker& w = phase.workers[static_cast<std::size_t>(t)];
    if (traced) w.spans = std::make_unique<SpanBuffer>(kSpanCapacity);
    threads.emplace_back(client_loop, std::ref(rig), std::ref(w), t,
                         root.fork(static_cast<std::uint64_t>(t)),
                         std::cref(zipf), op_limit);
    pin_client(threads.back(), t);
  }
  for (std::thread& thread : threads) thread.join();
  for (Worker& w : phase.workers) {
    phase.ops += w.ops;
    phase.host_s = std::max(phase.host_s, static_cast<double>(w.busy_ns) * 1e-9);
    rig.writes += w.writes;
    rig.takes += w.takes;
    rig.failures += w.failures;
  }
}

/// Builds an engine, preloads it and runs one warm-up pass (the set-up).
std::unique_ptr<Rig> set_up(const Mix& mix, std::uint64_t seed, double scale,
                            space::OpLog* log) {
  // The engine's shard workers inherit the creating thread's CPUs: keep
  // them off the clients' CPUs so they never preempt a client mid-op.
  const std::vector<int> cpus = allowed_cpus();
  if (static_cast<int>(cpus.size()) > kThreads) {
    set_affinity(pthread_self(), {cpus.begin() + kThreads, cpus.end()});
  }
  auto rig = std::make_unique<Rig>(mix, log);
  set_affinity(pthread_self(), cpus);
  util::Xoshiro256 rng(seed ^ 0x5EED);
  const Zipf zipf(mix.keys, kZipfS);
  std::int64_t& seq = rig->next_seq[kThreads];
  for (std::size_t i = 0; i < mix.preload; ++i) {
    const auto key = static_cast<std::size_t>(zipf.draw(rng));
    rig->engine.write(space::make_tuple(
        rig->keys[key], static_cast<std::int64_t>(kThreads), seq++));
  }
  rig->writes += mix.preload;
  Phase warmup;
  run_phase(*rig, warmup, seed ^ 0xAAAA,
            static_cast<std::uint64_t>(kWarmupOpsPerThread * scale),
            /*traced=*/false);
  return rig;
}

/// Final-state gates: no tuple taken twice, no bad match, size balances.
void check_books(Rig& rig, RunReport& report, const std::string& which) {
  report.ops_failed += rig.failures;
  const std::uint64_t expected = rig.writes - rig.takes;
  report.gate(rig.engine.size() == expected,
              which + " size " + std::to_string(rig.engine.size()) +
                  " != preload + writes - takes = " + std::to_string(expected));
}

}  // namespace

void run_threaded(const Args& args, RunReport& report) {
  const Mix mix = mix_of(args.bit, args.scale);
  auto untraced_set_up = [&] {
    return set_up(mix, args.seed, args.scale, nullptr);
  };
  const std::int64_t t0 = host_ns();
  std::unique_ptr<Rig> rig = untraced_set_up();
  const double setup_s = static_cast<double>(host_ns() - t0) * 1e-9;

  // Tracing halves the measured pass; the traced pass follows it.
  const auto ops_per_thread = static_cast<std::uint64_t>(
      mix.ops_per_thread_per_s * args.seconds / (args.trace ? 2 : 1));
  const space::SpaceEngine::Stats before = rig->engine.stats();
  Phase measured;
  run_phase(*rig, measured, args.seed, ops_per_thread, false);
  const double peak_rss = peak_rss_mb();
  const space::SpaceEngine::Stats after = rig->engine.stats();

  // Throughput over the whole pass; latencies cover every measured op.
  std::array<LatencyHistogram, 4> by_op;
  LatencyHistogram all_ops;
  for (const Worker& w : measured.workers) {
    for (int op = 0; op < 4; ++op) {
      by_op[op].merge(w.by_op[op]);
      all_ops.merge(w.by_op[op]);
    }
  }
  report.ops = measured.ops;
  report.latency_samples = all_ops.count();
  const double untraced_rate =
      per(static_cast<double>(measured.ops), measured.host_s);
  report.set("ops_per_host_s", untraced_rate);
  report.set("host_op_p50_us", all_ops.percentile(50) * 1e-3);
  report.set("host_op_p99_us", all_ops.percentile(99) * 1e-3);
  report.set("peak_rss_mb", peak_rss);

  for (int op = 0; op < 4; ++op) {
    const std::string name = kOpName[op];
    report.set("space.op_host_us_p50." + name, by_op[op].percentile(50) * 1e-3);
    report.set("space.op_host_us_p99." + name, by_op[op].percentile(99) * 1e-3);
  }
  const auto matched = static_cast<double>((after.reads - before.reads) +
                                           (after.takes - before.takes));
  report.set("space.scan_steps_per_op",
             per(static_cast<double>(after.scan_steps - before.scan_steps),
                 static_cast<double>(measured.ops)));
  report.set("space.hit_ratio",
             per(matched, matched + static_cast<double>(after.misses -
                                                        before.misses)));
  const obs::Snapshot snap = rig->registry.snapshot();
  double inbox_peak = 0;
  for (int s = 0; s < kShards; ++s) {
    const auto* gauge =
        snap.find_gauge("space.shard" + std::to_string(s) + ".inbox_peak");
    if (gauge != nullptr) inbox_peak = std::max(inbox_peak, gauge->value);
  }
  report.set("space.inbox_peak", inbox_peak);
  report.add_param("store_size_at_end",
                   obs::JsonValue(static_cast<std::uint64_t>(rig->engine.size())));
  check_books(*rig, report, "measured engine");
  rig.reset();
  if (!args.trace) {
    report.set("setup_s", median_setup_s(setup_s, untraced_set_up));
    return;
  }

  // A second engine records the OpLog; the traced pass stops when the span
  // buffers fill or the window ends.
  space::OpLog log;
  std::unique_ptr<Rig> traced_rig = set_up(mix, args.seed, args.scale, &log);
  Phase traced;
  run_phase(*traced_rig, traced, args.seed + 1, ops_per_thread, true);
  const double traced_rate = per(static_cast<double>(traced.ops), traced.host_s);
  report.set("trace.overhead_pct",
             100.0 * (per(untraced_rate, traced_rate) - 1.0));
  double wildcard_ns = 0;
  double total_ns = 0;
  for (const Worker& w : traced.workers) {
    for (const Span& span : w.spans->spans()) {
      const auto ns = static_cast<double>(span.end_ns - span.start_ns);
      total_ns += ns;
      if (span.name == kOpSpan[kWildcard]) wildcard_ns += ns;
    }
    report.add_spans(*w.spans);
  }
  report.set("space.wildcard_host_share", per(wildcard_ns, total_ns));
  report.add_registry(traced_rig->registry.snapshot(), args.workload);
  check_books(*traced_rig, report, "traced engine");
  const std::vector<space::Tuple> final_state = traced_rig->engine.snapshot();
  traced_rig->engine.shutdown();
  const space::ReplayReport oracle =
      space::replay_against_oracle(log, Rig::engine_config(), final_state);
  report.gate(oracle.equivalent, "oracle: " + oracle.divergence);
}

}  // namespace perf
