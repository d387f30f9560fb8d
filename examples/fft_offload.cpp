// FFT offload through the space: the paper's §2.1 scalability scenario.
//
// FPU-less "producer" nodes put sample vectors into the space; FPU-capable
// "consumer" nodes take them, compute magnitude spectra, and write results
// back. Service discovery locates the FFT providers first, then a sweep
// over the consumer count shows throughput scaling.
//
//   ./fft_offload
#include <cstdio>

#include <memory>
#include <vector>

#include "src/sim/process.hpp"
#include "src/svc/discovery.hpp"
#include "src/svc/worker_pool.hpp"

using namespace tb;
using namespace tb::sim::literals;

namespace {

struct SweepPoint {
  int consumers;
  double makespan_sec;
  double mean_latency_ms;
};

SweepPoint run_pool(int consumer_count) {
  sim::Simulator sim(1);
  space::SpaceEngine space(sim);
  svc::LocalSpaceApi api(space);
  svc::Discovery discovery(api);

  // Consumers announce themselves; producers could locate them (§2.1's
  // "support to system extensions").
  std::vector<std::unique_ptr<svc::FftConsumer>> pool;
  svc::ConsumerConfig consumer_config;
  consumer_config.compute_time = 50_ms;
  for (int i = 0; i < consumer_count; ++i) {
    auto id = "fft-node-" + std::to_string(i);
    pool.push_back(std::make_unique<svc::FftConsumer>(api, id, consumer_config));
    pool.back()->start();
    sim::spawn([&discovery, id, i]() -> sim::Task<void> {
      svc::ServiceRecord record{"fft", id, i + 10, 1};
      co_await discovery.announce(record);
    });
  }

  constexpr int kProducers = 4;
  int finished = 0;
  sim::Time all_done;
  util::SampleSet latencies;
  for (int p = 0; p < kProducers; ++p) {
    svc::ProducerConfig producer_config;
    producer_config.jobs = 8;
    producer_config.fft_size = 512;
    producer_config.job_id_base = 1'000 * (p + 1);
    producer_config.submit_gap = sim::Time::zero();
    sim::spawn([&, producer_config]() -> sim::Task<void> {
      svc::FftProducer producer(api, producer_config);
      svc::FftProducer::Result result = co_await producer.run();
      for (double s : result.job_latency.samples()) latencies.add(s);
      if (++finished == kProducers) all_done = sim.now();
    });
  }
  sim.run_until(300_s);

  SweepPoint point;
  point.consumers = consumer_count;
  point.makespan_sec = all_done.seconds();
  point.mean_latency_ms = latencies.empty() ? 0.0 : latencies.mean() * 1e3;
  return point;
}

}  // namespace

int main() {
  std::printf("FFT offload: 4 producers x 8 jobs of FFT-512, 50 ms crunch\n");
  std::printf("%-10s %-14s %-16s %s\n", "consumers", "makespan (s)",
              "job latency(ms)", "speedup");
  double base = 0.0;
  for (int consumers : {1, 2, 4, 8}) {
    const SweepPoint point = run_pool(consumers);
    if (base == 0.0) base = point.makespan_sec;
    std::printf("%-10d %-14.3f %-16.1f %.2fx\n", point.consumers,
                point.makespan_sec, point.mean_latency_ms,
                base / point.makespan_sec);
  }
  std::printf("\n\"the overall system performance [is] clearly proportional "
              "to the number of consumers\" (paper, section 2.1)\n");
  return 0;
}
