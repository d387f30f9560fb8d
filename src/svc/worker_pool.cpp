#include "src/svc/worker_pool.hpp"

#include "src/util/assert.hpp"
#include "src/util/byte_buffer.hpp"
#include "src/util/fft.hpp"

namespace tb::svc {

namespace {

space::Template request_template() {
  return space::Template(
      std::string("fft-req"),
      {space::FieldPattern::typed(space::ValueType::kInt),
       space::FieldPattern::typed(space::ValueType::kBytes)});
}

space::Template response_template(std::int64_t job_id) {
  return space::Template(
      std::string("fft-resp"),
      {space::FieldPattern::exact(space::Value(job_id)),
       space::FieldPattern::typed(space::ValueType::kBytes)});
}

}  // namespace

std::vector<std::uint8_t> pack_doubles(const std::vector<double>& values) {
  util::ByteBuffer buf;
  for (double v : values) buf.put_f64(v);
  return buf.take();
}

std::vector<double> unpack_doubles(const std::vector<std::uint8_t>& bytes) {
  TB_REQUIRE(bytes.size() % 8 == 0);
  util::ByteCursor cursor(bytes);
  std::vector<double> out;
  out.reserve(bytes.size() / 8);
  while (!cursor.at_end()) out.push_back(cursor.get_f64());
  return out;
}

FftConsumer::FftConsumer(SpaceApi& api, std::string consumer_id,
                         ConsumerConfig config)
    : api_(&api), id_(std::move(consumer_id)), config_(config) {}

void FftConsumer::start() {
  TB_REQUIRE_MSG(!started_, "consumer already running");
  started_ = true;
  sim::spawn(run());
}

sim::Task<void> FftConsumer::run() {
  for (;;) {
    // Re-armed every second rather than waiting forever: the committed
    // bench baselines measure this event schedule.
    std::optional<space::Tuple> request =
        co_await api_->take(request_template(), sim::Time::sec(1));
    if (!request) continue;

    const std::int64_t job_id = request->fields[0].as_int();
    const std::vector<double> samples =
        unpack_doubles(request->fields[1].as_bytes());

    co_await sim::delay(api_->simulator(), config_.compute_time);
    const std::vector<double> magnitudes = util::magnitude_spectrum(samples);

    // Built before the co_await: GCC 12 miscompiles initializer lists that
    // live across a suspension point.
    std::vector<space::Value> fields;
    fields.emplace_back(job_id);
    fields.emplace_back(pack_doubles(magnitudes));
    space::Tuple response("fft-resp", std::move(fields));
    co_await api_->write(std::move(response), space::kLeaseForever);
    ++jobs_done_;
  }
}

FftProducer::FftProducer(SpaceApi& api, ProducerConfig config)
    : api_(&api), config_(config), rng_(0xFF7 + config.job_id_base) {
  TB_REQUIRE(util::is_power_of_two(config.fft_size));
  TB_REQUIRE(config.jobs > 0);
}

sim::Task<FftProducer::Result> FftProducer::run() {
  Result result;
  const sim::Time started = api_->simulator().now();

  for (std::size_t i = 0; i < config_.jobs; ++i) {
    const std::int64_t job_id =
        config_.job_id_base + static_cast<std::int64_t>(i);
    std::vector<double> samples(config_.fft_size);
    for (double& s : samples) s = rng_.next_double() * 2.0 - 1.0;

    const sim::Time submitted = api_->simulator().now();
    std::vector<space::Value> fields;
    fields.emplace_back(job_id);
    fields.emplace_back(pack_doubles(samples));
    space::Tuple request("fft-req", std::move(fields));
    co_await api_->write(std::move(request), space::kLeaseForever);

    // Collect synchronously (one job outstanding): the paper's low-end
    // producer has no parallelism; throughput scaling must come from
    // consumers racing over *multiple* producers' requests.
    std::optional<space::Tuple> response =
        co_await api_->take(response_template(job_id), config_.result_timeout);
    if (response.has_value()) {
      ++result.completed;
      result.job_latency.add((api_->simulator().now() - submitted).seconds());
    } else {
      ++result.lost;
    }
    if (config_.submit_gap > sim::Time::zero()) {
      co_await sim::delay(api_->simulator(), config_.submit_gap);
    }
  }
  result.makespan = api_->simulator().now() - started;
  co_return result;
}

}  // namespace tb::svc
