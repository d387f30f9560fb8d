// Producer/consumer FFT offload (paper §2.1, "Scalability of systems").
//
// The paper's motivating workload: FPU-less producer nodes put sample
// vectors into the space as service requests; FPU-capable consumer nodes
// take requests, compute the Fast Fourier Transform, and write results
// back — "the overall system performance [is] clearly proportional to the
// number of consumers", which bench_consumer_scaling measures.
//
// Request tuple:  ("fft-req",  job_id, samples-as-bytes)
// Result tuple:   ("fft-resp", job_id, magnitudes-as-bytes)
// Samples and magnitudes are packed big-endian f64 (see pack/unpack).
#pragma once

#include <cstdint>
#include <vector>

#include "src/svc/space_api.hpp"
#include "src/util/stats.hpp"

namespace tb::svc {

/// Doubles <-> byte-field packing for tuple transport.
std::vector<std::uint8_t> pack_doubles(const std::vector<double>& values);
std::vector<double> unpack_doubles(const std::vector<std::uint8_t>& bytes);

struct ConsumerConfig {
  /// Simulated crunch time per job on this node (an FPU-capable node is
  /// fast; set higher to model weaker hardware).
  sim::Time compute_time = sim::Time::ms(5);
};

/// Takes fft-req tuples forever, computes magnitude spectra, writes
/// fft-resp tuples. The process runs until its simulator dies.
class FftConsumer {
 public:
  FftConsumer(SpaceApi& api, std::string consumer_id, ConsumerConfig config = {});

  void start();

  std::uint64_t jobs_done() const { return jobs_done_; }
  const std::string& id() const { return id_; }

 private:
  sim::Task<void> run();

  SpaceApi* api_;
  std::string id_;
  ConsumerConfig config_;
  bool started_ = false;
  std::uint64_t jobs_done_ = 0;
};

struct ProducerConfig {
  std::size_t jobs = 16;
  std::size_t fft_size = 256;       ///< power of two
  sim::Time submit_gap = sim::Time::ms(1);
  sim::Time result_timeout = sim::Time::sec(60);
  std::int64_t job_id_base = 0;     ///< keeps concurrent producers disjoint
};

/// Submits jobs and collects results; reports latency statistics.
class FftProducer {
 public:
  FftProducer(SpaceApi& api, ProducerConfig config = {});

  struct Result {
    std::uint64_t completed = 0;
    std::uint64_t lost = 0;         ///< result_timeout expiries
    util::SampleSet job_latency;    ///< submit -> result, seconds
    sim::Time makespan;             ///< first submit -> last result
  };

  /// Runs the whole batch; resolves when every job completed or timed out.
  sim::Task<Result> run();

 private:
  SpaceApi* api_;
  ProducerConfig config_;
  util::Xoshiro256 rng_;
};

}  // namespace tb::svc
