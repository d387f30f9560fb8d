#include "src/wire/bus.hpp"

#include "src/util/assert.hpp"

namespace tb::wire {

sim::Task<CycleResult> OneWireBus::cycle(TxFrame frame, bool expect_reply) {
  TB_REQUIRE_MSG(!busy_, "bus cycle while the medium is busy");
  busy_ = true;
  ++stats_.cycles;
  const sim::Time start = sim_->now();

  const std::uint16_t word = maybe_corrupt(
      frame.encode(), faults_.tx_corrupt_prob, /*rx=*/false, stats_.tx_corrupted);

  CycleTrace trace;
  trace.start = start;
  trace.tx_word = word;
  trace.expect_reply = expect_reply;

  // TX frame leaves the master.
  co_await sim::delay(*sim_, timing_.frame);

  // The frame repeats through the chain; each node sees it one hop later.
  int responder = -1;
  RxFrame response;
  sim::Time responder_saw_at;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    co_await sim::delay(*sim_, timing_.hop);
    std::optional<RxFrame> r = chain_[i]->observe_frame(word);
    if (r.has_value()) {
      TB_ASSERT(responder < 0);  // at most one selected slave may answer
      responder = static_cast<int>(i);
      response = *r;
      responder_saw_at = sim_->now();
    }
  }

  CycleResult result;
  const sim::Time timeout_at = start + timing_.frame + timing_.rx_timeout;

  if (!expect_reply) {
    // Broadcast cycle: nobody answers; wait the fixed broadcast gap.
    const sim::Time until = start + timing_.frame + timing_.broadcast_gap;
    if (until > sim_->now()) co_await sim::delay(*sim_, until - sim_->now());
    result.status = CycleResult::Status::kOk;
    ++stats_.ok;
  } else if (responder < 0) {
    if (timeout_at > sim_->now()) co_await sim::delay(*sim_, timeout_at - sim_->now());
    result.status = CycleResult::Status::kTimeout;
    ++stats_.timeouts;
  } else {
    // The RX frame crosses every node between the responder and the master;
    // each (responder included) ORs its pending interrupt into INT.
    for (int i = responder; i >= 0; --i) {
      if (chain_[i]->pending_interrupt()) response.intr = true;
    }
    const sim::Time rx_at_master = responder_saw_at + timing_.response +
                                   timing_.frame +
                                   timing_.hop * (responder + 1);
    if (rx_at_master > timeout_at) {
      // Response exists but arrives after the master gave up.
      if (timeout_at > sim_->now())
        co_await sim::delay(*sim_, timeout_at - sim_->now());
      result.status = CycleResult::Status::kTimeout;
      ++stats_.timeouts;
    } else {
      if (rx_at_master > sim_->now())
        co_await sim::delay(*sim_, rx_at_master - sim_->now());
      const std::uint16_t rx_word =
          maybe_corrupt(response.encode(), faults_.rx_corrupt_prob, /*rx=*/true,
                        stats_.rx_corrupted);
      trace.rx_seen = true;
      trace.rx_word = rx_word;
      const std::optional<RxFrame> decoded = RxFrame::decode(rx_word);
      if (decoded.has_value()) {
        result.status = CycleResult::Status::kOk;
        result.rx = decoded;
        ++stats_.ok;
      } else {
        result.status = CycleResult::Status::kCrcError;
        ++stats_.crc_errors;
      }
    }
  }

  co_await sim::delay(*sim_, timing_.interframe_gap);
  stats_.busy_time += sim_->now() - start;
  busy_ = false;
  trace.end = sim_->now();
  trace.responder = responder;
  trace.status = result.status;
  on_cycle_.emit(trace);
  co_return result;
}

}  // namespace tb::wire
