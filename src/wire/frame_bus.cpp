#include "src/wire/frame_bus.hpp"

#include <algorithm>

#include "src/util/assert.hpp"

namespace tb::wire {

FrameLevelBus::FrameLevelBus(sim::Simulator& sim, LinkConfig link,
                             FaultConfig faults)
    : BusModel(sim, link, faults) {}

FrameLevelBus::~FrameLevelBus() {
  // Leave surviving slaves self-contained (destroyed ones already nulled
  // their chain_ slot via on_slave_destroyed).
  for (SlaveDevice* slave : chain_) {
    if (slave == nullptr) continue;
    slave->sync_feed_mut();
    slave->feed_ = nullptr;
    slave->listener_ = nullptr;
  }
}

int FrameLevelBus::attach(SlaveDevice& slave) {
  const int pos = BusModel::attach(slave);
  node_to_pos_.emplace(slave.node_id(), pos);
  slave.join_frame_bus(&feed_, this, pos);
  // A slave joining mid-run missed the shared history; rebuild the picture.
  if (stats_.cycles > 0) disturbed_ = true;
  return pos;
}

void FrameLevelBus::on_disturbed(int) { disturbed_ = true; }

void FrameLevelBus::on_pending_changed(int chain_pos, bool pending) {
  if (pending) {
    pending_pos_.insert(chain_pos);
  } else {
    pending_pos_.erase(chain_pos);
  }
}

void FrameLevelBus::on_slave_destroyed(int chain_pos) {
  chain_[chain_pos] = nullptr;
  pending_pos_.erase(chain_pos);
  for (auto it = node_to_pos_.begin(); it != node_to_pos_.end(); ++it) {
    if (it->second == chain_pos) {
      node_to_pos_.erase(it);
      break;
    }
  }
  if (selected_pos_ == chain_pos) selected_pos_ = -1;
  disturbed_ = true;  // a hole in the chain: no fast cycles past this point
}

void FrameLevelBus::try_resync(bool word_valid, sim::Time tx_done) {
  if (!word_valid) return;  // the word did not pet the chain uniformly
  int sel = -1;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    if (chain_[i] == nullptr) return;  // destroyed slot: stay slow
    const SlaveDevice& slave = *chain_[i];
    if (!slave.alive_) return;
    const sim::Time saw_at = tx_done + timing_.hop * (static_cast<int>(i) + 1);
    if (slave.reset_until_ > saw_at) return;  // missed the pet: still in reset
    if (slave.broadcast_selected_) return;    // everyone executes, nobody replies
    if (slave.selected_) {
      if (sel >= 0) return;  // cannot happen on a healthy bus, but stay safe
      sel = static_cast<int>(i);
    }
  }
  // Every slave observed this word directly at base `tx_done`: the
  // closed-form picture is whole again.
  feed_.last_valid_base = tx_done;
  selected_pos_ = sel;
  disturbed_ = false;
  armed_ = true;
}

sim::Task<CycleResult> FrameLevelBus::cycle(TxFrame frame, bool expect_reply) {
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

  const sim::Time frame_d = timing_.frame;
  const sim::Time hop = timing_.hop;
  const sim::Time tx_done = start + frame_d;
  const int n = static_cast<int>(chain_.size());

  const std::optional<TxFrame> decoded = TxFrame::decode(word);

  bool fast = !disturbed_;
  // Would any watchdog fire while this word crosses the chain? Uniform pet
  // times make this one comparison (slave i's deadline and arrival both
  // shift by hop*(i+1)).
  if (fast && armed_ &&
      tx_done > feed_.last_valid_base + timing_.reset_timeout) {
    fast = false;
  }
  // Broadcast selection changes every slave's state, and every later cycle
  // under it executes on all slaves with no reply: force full observation
  // until a unicast SELECT resyncs the picture.
  if (decoded.has_value() && decoded->cmd == Command::kSelect &&
      node_id_of_address(decoded->data) == kBroadcastNodeId) {
    disturbed_ = true;
    fast = false;
  }

  int responder = -1;
  RxFrame response;
  sim::Time responder_saw_at;

  if (fast) {
    ++fast_cycles_;
    int target_pos = -1;
    if (decoded.has_value()) {
      if (decoded->cmd == Command::kSelect) {
        const auto it = node_to_pos_.find(node_id_of_address(decoded->data));
        target_pos = it == node_to_pos_.end() ? -1 : it->second;
        selected_pos_ = target_pos;
      } else {
        target_pos = selected_pos_;
      }
    }
    if (target_pos >= 0) {
      const sim::Time saw_at = tx_done + hop * (target_pos + 1);
      std::optional<RxFrame> r = chain_[target_pos]->observe_frame(word, saw_at);
      if (r.has_value()) {
        responder = target_pos;
        response = *r;
        responder_saw_at = saw_at;
      }
    }
    // Publish the word for every untouched slave; the direct target marks
    // it consumed so it is not double counted.
    ++feed_.words;
    if (decoded.has_value()) {
      ++feed_.valid_words;
      feed_.last_valid_base = tx_done;
      armed_ = true;
      if (decoded->cmd == Command::kSelect) {
        ++feed_.select_serial;
        feed_.select_address = decoded->data;
      }
    }
    if (target_pos >= 0) chain_[target_pos]->mark_feed_consumed();
  } else {
    ++slow_cycles_;
    for (int i = 0; i < n; ++i) {
      if (chain_[i] == nullptr) continue;  // destroyed slot: hop only
      const sim::Time saw_at = tx_done + hop * (i + 1);
      std::optional<RxFrame> r = chain_[i]->observe_frame(word, saw_at);
      if (r.has_value()) {
        TB_ASSERT(responder < 0);  // at most one selected slave may answer
        responder = i;
        response = *r;
        responder_saw_at = saw_at;
      }
    }
    try_resync(decoded.has_value(), tx_done);
  }

  CycleResult result;
  const sim::Time timeout_at = start + frame_d + timing_.rx_timeout;
  // OneWireBus's clock sits at the end of the hop walk before it waits out
  // gap/timeout/RX; the max() terms reproduce its "already past that
  // instant" cases on deep chains.
  const sim::Time after_hops = tx_done + hop * n;
  sim::Time wait_until;

  if (!expect_reply) {
    wait_until = std::max(after_hops, start + frame_d + timing_.broadcast_gap);
    result.status = CycleResult::Status::kOk;
    ++stats_.ok;
  } else if (responder < 0) {
    wait_until = std::max(after_hops, timeout_at);
    result.status = CycleResult::Status::kTimeout;
    ++stats_.timeouts;
  } else {
    // The RX frame crosses every node between the responder and the master;
    // each (responder included) ORs its pending interrupt into INT.
    if (fast) {
      if (!pending_pos_.empty() && *pending_pos_.begin() <= responder) {
        response.intr = true;
      }
    } else {
      for (int i = responder; i >= 0; --i) {
        if (chain_[i] != nullptr && chain_[i]->pending_interrupt()) {
          response.intr = true;
        }
      }
    }
    const sim::Time rx_at_master = responder_saw_at + timing_.response +
                                   frame_d + hop * (responder + 1);
    if (rx_at_master > timeout_at) {
      // Response exists but arrives after the master gave up.
      wait_until = std::max(after_hops, timeout_at);
      result.status = CycleResult::Status::kTimeout;
      ++stats_.timeouts;
    } else {
      wait_until = std::max(after_hops, rx_at_master);
      const std::uint16_t rx_word =
          maybe_corrupt(response.encode(), faults_.rx_corrupt_prob, /*rx=*/true,
                        stats_.rx_corrupted);
      trace.rx_seen = true;
      trace.rx_word = rx_word;
      const std::optional<RxFrame> rx_decoded = RxFrame::decode(rx_word);
      if (rx_decoded.has_value()) {
        result.status = CycleResult::Status::kOk;
        result.rx = rx_decoded;
        ++stats_.ok;
      } else {
        result.status = CycleResult::Status::kCrcError;
        ++stats_.crc_errors;
      }
    }
  }

  // The whole cycle collapses into this one delay.
  co_await sim::delay(*sim_, wait_until + timing_.interframe_gap - start);
  stats_.busy_time += sim_->now() - start;
  busy_ = false;
  trace.end = sim_->now();
  trace.responder = responder;
  trace.status = result.status;
  on_cycle_.emit(trace);
  co_return result;
}

}  // namespace tb::wire
