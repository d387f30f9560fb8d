// Tuplespace core operation costs + the (name, arity)-index ablation and
// the shard-count sweep.
//
// The DESIGN.md ablations: how much does associative matching cost with a
// linear store versus the indexed store, as the space fills with
// heterogeneous tuples — and how much does partitioning the store into
// type_key shards (DESIGN.md §10) recover once the entry map is large?
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench/gbench_report.hpp"
#include "src/sim/simulator.hpp"
#include "src/space/engine.hpp"
#include "src/space/threaded.hpp"

namespace {

using namespace tb;

space::Template exact_template(int key) {
  return space::Template(
      std::string("target"),
      {space::FieldPattern::exact(space::Value(std::int64_t{key}))});
}

void fill_noise(space::SpaceEngine& space, int noise_tuples) {
  for (int i = 0; i < noise_tuples; ++i) {
    space.write(space::make_tuple("noise-" + std::to_string(i % 16),
                                  std::int64_t{i}, 1.5, "filler"));
  }
}

void BM_WriteTake(benchmark::State& state) {
  sim::Simulator sim;
  space::SpaceConfig config;
  config.use_type_index = state.range(0) != 0;
  config.shard_count = static_cast<int>(state.range(2));
  space::SpaceEngine space(sim, config);
  fill_noise(space, static_cast<int>(state.range(1)));

  int key = 0;
  for (auto _ : state) {
    space.write(space::make_tuple("target", std::int64_t{key}));
    benchmark::DoNotOptimize(space.take_if_exists(exact_template(key)));
    ++key;
  }
}
BENCHMARK(BM_WriteTake)
    ->ArgsProduct({{0, 1}, {0, 100, 1'000, 10'000}, {1, 4, 16}})
    ->ArgNames({"index", "noise", "shards"});

void fill_noise_threaded(space::ThreadedSpaceEngine& space, int noise_tuples) {
  for (int i = 0; i < noise_tuples; ++i) {
    space.write(space::make_tuple("noise-" + std::to_string(i % 16),
                                  std::int64_t{i}, 1.5, "filler"));
  }
}

void BM_WriteTakeThreaded(benchmark::State& state) {
  // The execution_mode axis against BM_WriteTake: same write + named-take
  // round trip through the threaded runtime's MPSC ring + flat-combining
  // hot path (DESIGN.md §15). An uncontended sync op CAS-acquires the
  // shard's ownership word and applies inline — zero context switches, so
  // on a single-core host this measures the ring/ticket/combining overhead
  // over the deterministic engine, not parallel speedup (cf. the tb::par
  // caveat in DESIGN.md §9).
  space::SpaceConfig config;
  config.execution_mode = space::ExecutionMode::kThreaded;
  config.shard_count = static_cast<int>(state.range(1));
  space::ThreadedSpaceEngine space(config);
  fill_noise_threaded(space, static_cast<int>(state.range(0)));

  int key = 0;
  for (auto _ : state) {
    space.write(space::make_tuple("target", std::int64_t{key}));
    benchmark::DoNotOptimize(space.take_if_exists(exact_template(key)));
    ++key;
  }
  space.shutdown();
}
BENCHMARK(BM_WriteTakeThreaded)
    ->ArgsProduct({{0, 10'000}, {1, 4, 16}})
    ->ArgNames({"noise", "shards"});

void BM_WildcardTakeThreaded(benchmark::State& state) {
  // Wildcard ops are the threaded engine's cross-shard path: the
  // coordinator CAS-sweeps every shard's ownership word (a sequence point,
  // not a worker quiesce — idle shards cost one uncontested CAS each, no
  // wakeups or condvar rendezvous), so cost grows with shard_count but
  // only by the width of the ownership sweep.
  space::SpaceConfig config;
  config.execution_mode = space::ExecutionMode::kThreaded;
  config.shard_count = static_cast<int>(state.range(0));
  space::ThreadedSpaceEngine space(config);

  const space::Template any(std::nullopt, {space::FieldPattern::any()});
  for (auto _ : state) {
    space.write(space::make_tuple("w", std::int64_t{1}));
    benchmark::DoNotOptimize(space.take_if_exists(any));
  }
  space.shutdown();
}
BENCHMARK(BM_WildcardTakeThreaded)
    ->Arg(1)->Arg(4)->Arg(16)
    ->ArgNames({"shards"});

void BM_MultiProducerThreaded(benchmark::State& state) {
  // Contended hot path: P background producer threads hammer their own
  // named keys (sync write + take round trips — each CAS-fights for shard
  // ownership and combines into whoever holds it) while the timing thread
  // runs the same named round trip plus a periodic wildcard read_all (the
  // ownership-sweep sequence point under load). ns/op here is the price of
  // the combining protocol under real contention; on a single-core host
  // the producers also exercise every park/wake edge in the spin-then-park
  // policy, since the timing thread's progress forces preemption mid-drain.
  space::SpaceConfig config;
  config.execution_mode = space::ExecutionMode::kThreaded;
  config.shard_count = static_cast<int>(state.range(1));
  space::ThreadedSpaceEngine space(config);

  const auto producer_count = static_cast<int>(state.range(0));
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(producer_count));
  for (int p = 0; p < producer_count; ++p) {
    producers.emplace_back([&space, &stop, p] {
      const std::string name = "bg-" + std::to_string(p);
      const space::Template mine(
          std::string(name), {space::FieldPattern::any()});
      std::int64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        space.write(space::make_tuple(name, v++));
        benchmark::DoNotOptimize(space.take_if_exists(mine));
      }
    });
  }

  const space::Template any(std::nullopt, {space::FieldPattern::any()});
  int key = 0;
  for (auto _ : state) {
    space.write(space::make_tuple("target", std::int64_t{key}));
    benchmark::DoNotOptimize(space.take_if_exists(exact_template(key)));
    if ((++key & 255) == 0) {
      benchmark::DoNotOptimize(space.read_all(any, 4));
    }
  }

  stop.store(true);
  for (std::thread& t : producers) t.join();
  space.shutdown();
}
BENCHMARK(BM_MultiProducerThreaded)
    ->ArgsProduct({{1, 2, 4}, {1, 4, 16}})
    ->ArgNames({"producers", "shards"})
    ->UseRealTime();

void BM_WriteTakeLargePayload(benchmark::State& state) {
  // The zero-copy payoff: write moves the tuple's buffers into the store
  // and take moves them back out, so cost stays flat as the payload grows
  // (bytes/op here is the payload actually carried, not copied).
  sim::Simulator sim;
  space::SpaceEngine space(sim);
  const auto payload_bytes = static_cast<std::size_t>(state.range(0));

  const space::Template tmpl(std::string("blob"),
                             {space::FieldPattern::any()});
  for (auto _ : state) {
    state.PauseTiming();  // building the payload is the producer's cost
    std::vector<std::uint8_t> payload(payload_bytes, 0x5A);
    state.ResumeTiming();
    space.write(space::make_tuple("blob", std::move(payload)));
    benchmark::DoNotOptimize(space.take_if_exists(tmpl));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload_bytes));
}
BENCHMARK(BM_WriteTakeLargePayload)
    ->Arg(256)->Arg(4'096)->Arg(65'536)
    ->ArgNames({"payload"});

void BM_ReadMissWorstCase(benchmark::State& state) {
  // A miss must inspect every candidate: the index prunes to the (empty)
  // bucket; the linear scan walks the whole store.
  sim::Simulator sim;
  space::SpaceConfig config;
  config.use_type_index = state.range(0) != 0;
  space::SpaceEngine space(sim, config);
  fill_noise(space, static_cast<int>(state.range(1)));

  const space::Template missing = exact_template(-1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.read_if_exists(missing));
  }
}
BENCHMARK(BM_ReadMissWorstCase)
    ->ArgsProduct({{0, 1}, {1'000, 10'000}})
    ->ArgNames({"index", "noise"});

void BM_NotifyFanout(benchmark::State& state) {
  sim::Simulator sim;
  space::SpaceEngine space(sim);
  const auto registrations = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  for (int i = 0; i < registrations; ++i) {
    space.notify(space::Template(std::string("event"),
                                 {space::FieldPattern::any()}),
                 space::kLeaseForever,
                 [&fired](const space::Tuple&) { ++fired; });
  }
  for (auto _ : state) {
    space.write(space::make_tuple("event", std::int64_t{1}));
    sim.run();  // dispatch the scheduled notifications
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_NotifyFanout)->Arg(1)->Arg(16)->Arg(128);

void BM_BlockedTakeWakeup(benchmark::State& state) {
  sim::Simulator sim;
  space::SpaceEngine space(sim);
  const space::Template tmpl(std::string("t"), {space::FieldPattern::any()});
  for (auto _ : state) {
    bool done = false;
    space.take_async(tmpl, space::kLeaseForever,
                     [&done](std::optional<space::Tuple>) { done = true; });
    space.write(space::make_tuple("t", std::int64_t{1}));
    sim.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_BlockedTakeWakeup);

void BM_LeaseChurn(benchmark::State& state) {
  // Write with finite leases and let the expiry events fire.
  sim::Simulator sim;
  space::SpaceEngine space(sim);
  using namespace tb::sim::literals;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      space.write(space::make_tuple("burst", std::int64_t{i}), 1_ms);
    }
    sim.run_for(2_ms);
  }
  benchmark::DoNotOptimize(space.stats().expirations);
}
BENCHMARK(BM_LeaseChurn);

}  // namespace

TB_BENCHMARK_MAIN("space_ops")
