#include "src/wire/slave.hpp"

#include "src/util/assert.hpp"

namespace tb::wire {
namespace {

/// Bytes of slave memory the READ/WRITE commands address.
constexpr std::size_t kMemorySize = 256;

}  // namespace

SlaveDevice::SlaveDevice(sim::Simulator& sim, std::uint8_t node_id,
                         const LinkConfig& link, SlaveConfig config)
    : sim_(&sim),
      node_id_(node_id),
      link_(&link),
      config_(config),
      memory_(kMemorySize, 0),
      spi_(std::make_unique<ShiftSpi>()) {
  TB_REQUIRE_MSG(node_id <= kMaxNodeId, "node id 127 is the broadcast pseudo-node");
}

SlaveDevice::~SlaveDevice() {
  if (listener_ != nullptr) listener_->on_slave_destroyed(chain_pos_);
}

bool SlaveDevice::pending_interrupt() const {
  if (stuck_interrupt_) return true;  // INT line stuck asserted
  return alive_ && (manual_interrupt_ || !outbox_.empty());
}

void SlaveDevice::kill() {
  if (!alive_) return;
  sync_feed_mut();
  alive_ = false;
  ++stats_.kills;
  if (listener_) listener_->on_disturbed(chain_pos_);
  notify_pending();
}

void SlaveDevice::restart() {
  if (alive_) return;
  sync_feed_mut();
  alive_ = true;
  ++stats_.restarts;
  apply_reset();
  reset_until_ = sim_->now() + link_->reset_pulse();
  // A rebooted node has no memory of past bus activity: the watchdog stays
  // quiet until the next valid frame re-arms it.
  seen_valid_frame_ = false;
  notify_pending();
}

void SlaveDevice::check_watchdog(sim::Time at) {
  if (!seen_valid_frame_) return;  // no bus activity yet: idle, not resetting
  const sim::Time deadline = last_valid_frame_at_ + link_->reset_timeout();
  if (at > deadline && reset_until_ <= deadline) {
    // The watchdog fired at `deadline`; the pulse ran from there.
    apply_reset();
    reset_until_ = deadline + link_->reset_pulse();
  }
}

void SlaveDevice::apply_reset() {
  selected_ = false;
  broadcast_selected_ = false;
  system_space_ = false;
  address_ptr_ = 0;
  auto_increment_ = false;
  manual_interrupt_ = false;
  spi_result_ = 0;
  inbox_.clear();
  outbox_.clear();
  inbox_overflow_ = false;
  was_reset_ = true;
  ++stats_.resets;
  if (listener_) listener_->on_disturbed(chain_pos_);
  notify_pending();
}

void SlaveDevice::join_frame_bus(const FrameFeed* feed, BusListener* listener,
                                 int pos) {
  feed_ = feed;
  listener_ = listener;
  chain_pos_ = pos;
  feed_words_seen_ = feed->words;
  feed_valid_seen_ = feed->valid_words;
  feed_select_seen_ = feed->select_serial;
  last_pending_ = pending_interrupt();
  if (last_pending_ && listener_) listener_->on_pending_changed(pos, true);
}

void SlaveDevice::sync_feed() const {
  // Lazy materialization of state the bit-accurate model updates eagerly;
  // observable behavior is identical, so this is logically const.
  const_cast<SlaveDevice*>(this)->sync_feed_mut();
}

void SlaveDevice::sync_feed_mut() {
  if (feed_ == nullptr) return;
  if (feed_->words != feed_words_seen_) {
    stats_.frames_observed += feed_->words - feed_words_seen_;
    feed_words_seen_ = feed_->words;
  }
  if (feed_->valid_words != feed_valid_seen_) {
    // The feed only advances while every slave is alive and out of reset
    // (the bus falls back to full observation otherwise), so each of these
    // words pet the watchdog at this node's closed-form arrival time.
    stats_.valid_frames += feed_->valid_words - feed_valid_seen_;
    feed_valid_seen_ = feed_->valid_words;
    seen_valid_frame_ = true;
    last_valid_frame_at_ =
        feed_->last_valid_base + link_->hop_delay() * (chain_pos_ + 1);
  }
  if (feed_->select_serial != feed_select_seen_) {
    feed_select_seen_ = feed_->select_serial;
    // Unicast SELECTs only; broadcast selection forces full observation.
    const std::uint8_t target = node_id_of_address(feed_->select_address);
    selected_ = (target == node_id_);
    broadcast_selected_ = false;
    if (selected_) system_space_ = is_system_address(feed_->select_address);
  }
}

void SlaveDevice::mark_feed_consumed() {
  if (feed_ == nullptr) return;
  feed_words_seen_ = feed_->words;
  feed_valid_seen_ = feed_->valid_words;
  feed_select_seen_ = feed_->select_serial;
}

void SlaveDevice::notify_pending() {
  if (listener_ == nullptr) return;
  const bool pending = pending_interrupt();
  if (pending != last_pending_) {
    last_pending_ = pending;
    listener_->on_pending_changed(chain_pos_, pending);
  }
}

std::optional<RxFrame> SlaveDevice::observe_frame(std::uint16_t word,
                                                 sim::Time at) {
  sync_feed_mut();
  observe_at_ = at;
  ++stats_.frames_observed;
  if (!alive_) return std::nullopt;  // dead node: repeater only
  check_watchdog(at);
  if (at < reset_until_) return std::nullopt;  // unresponsive during the reset pulse

  const std::optional<TxFrame> frame = TxFrame::decode(word);
  if (!frame) return std::nullopt;  // only valid frames pet the watchdog

  ++stats_.valid_frames;
  seen_valid_frame_ = true;
  last_valid_frame_at_ = at;

  if (frame->cmd == Command::kSelect) {
    const std::uint8_t target = node_id_of_address(frame->data);
    if (target == kBroadcastNodeId) {
      selected_ = false;
      broadcast_selected_ = true;
      system_space_ = is_system_address(frame->data);
      return std::nullopt;  // nobody replies under broadcast
    }
    if (target == node_id_) {
      selected_ = true;
      broadcast_selected_ = false;
      system_space_ = is_system_address(frame->data);
      ++stats_.commands_executed;
      return RxFrame::status(node_id_, pending_interrupt());
    }
    selected_ = false;
    broadcast_selected_ = false;
    return std::nullopt;
  }

  if (!selected_ && !broadcast_selected_) return std::nullopt;

  ++stats_.commands_executed;
  std::optional<RxFrame> response = execute(*frame);
  // "all Slaves execute the TX frame command and none of them replies"
  if (broadcast_selected_) return std::nullopt;
  return response;
}

RxFrame SlaveDevice::nak() {
  ++stats_.naks;
  RxFrame frame;
  frame.type = RxType::kNak;
  frame.data = static_cast<std::uint8_t>((node_id_ << 1) | (pending_interrupt() ? 1 : 0));
  return frame;
}

std::optional<RxFrame> SlaveDevice::execute(const TxFrame& frame) {
  switch (frame.cmd) {
    case Command::kSelect:
      TB_ASSERT(false);  // handled by observe_frame
      return std::nullopt;

    case Command::kWriteAddress:
      // 16-bit shift register: two writes set high then low byte.
      address_ptr_ = static_cast<std::uint16_t>((address_ptr_ << 8) | frame.data);
      return RxFrame::status(node_id_, pending_interrupt());

    case Command::kWriteData:
      return data_write(frame.data);

    case Command::kReadData:
      return data_read();

    case Command::kReadFlags: {
      RxFrame rx;
      rx.type = RxType::kFlags;
      rx.data = flags();
      // Reading the flags register clears the sticky bits.
      was_reset_ = false;
      inbox_overflow_ = false;
      return rx;
    }

    case Command::kWriteCommand:
      write_command_register(frame.data);
      return RxFrame::status(node_id_, pending_interrupt());

    case Command::kSpiTransfer: {
      spi_result_ = spi_->exchange(frame.data);
      RxFrame rx;
      rx.type = RxType::kFlags;
      rx.data = spi_result_;
      return rx;
    }

    case Command::kPing:
      return RxFrame::status(node_id_, pending_interrupt());
  }
  return nak();
}

std::optional<RxFrame> SlaveDevice::data_read() {
  RxFrame rx;
  rx.type = RxType::kData;
  if (!system_space_) {
    if (auto io = io_map_.find(address_ptr_); io != io_map_.end()) {
      if (!io->second.read) return nak();  // write-only device register
      rx.data = io->second.read();
      if (auto_increment_) ++address_ptr_;
      return rx;
    }
    if (address_ptr_ >= memory_.size()) return nak();
    rx.data = memory_[address_ptr_];
    if (auto_increment_) ++address_ptr_;
    return rx;
  }
  switch (static_cast<SysReg>(address_ptr_ & 0x7)) {
    case SysReg::kCommand:
      rx.data = auto_increment_ ? cmdbits::kAutoIncrement : 0;
      return rx;
    case SysReg::kFlags:
      rx.data = flags();
      was_reset_ = false;
      inbox_overflow_ = false;
      return rx;
    case SysReg::kDmaCountLo:
      rx.data = static_cast<std::uint8_t>(outbox_.size() & 0xFF);
      return rx;
    case SysReg::kDmaCountHi:
      rx.data = static_cast<std::uint8_t>((outbox_.size() >> 8) & 0xFF);
      return rx;
    case SysReg::kSpiData:
      rx.data = spi_result_;
      return rx;
    case SysReg::kOutboxPort:
      if (outbox_.empty()) return nak();
      rx.data = outbox_.front();
      outbox_.pop_front();
      notify_pending();
      return rx;
    case SysReg::kInboxPort:
      return nak();  // write-only port
    case SysReg::kNodeId:
      rx.data = node_id_;
      return rx;
  }
  return nak();
}

std::optional<RxFrame> SlaveDevice::data_write(std::uint8_t value) {
  if (!system_space_) {
    if (auto io = io_map_.find(address_ptr_); io != io_map_.end()) {
      if (!io->second.write) return nak();  // read-only device register
      io->second.write(value);
      if (auto_increment_) ++address_ptr_;
      return RxFrame::status(node_id_, pending_interrupt());
    }
    if (address_ptr_ >= memory_.size()) return nak();
    memory_[address_ptr_] = value;
    if (auto_increment_) ++address_ptr_;
    return RxFrame::status(node_id_, pending_interrupt());
  }
  switch (static_cast<SysReg>(address_ptr_ & 0x7)) {
    case SysReg::kCommand:
      write_command_register(value);
      return RxFrame::status(node_id_, pending_interrupt());
    case SysReg::kSpiData:
      spi_result_ = spi_->exchange(value);
      return RxFrame::status(node_id_, pending_interrupt());
    case SysReg::kInboxPort:
      if (inbox_.size() >= config_.inbox_capacity) {
        inbox_overflow_ = true;
        return nak();
      }
      inbox_.push_back(value);
      on_inbox_byte_.emit(value);
      return RxFrame::status(node_id_, pending_interrupt());
    case SysReg::kFlags:
    case SysReg::kDmaCountLo:
    case SysReg::kDmaCountHi:
    case SysReg::kOutboxPort:
    case SysReg::kNodeId:
      return nak();  // read-only
  }
  return nak();
}

void SlaveDevice::write_command_register(std::uint8_t value) {
  auto_increment_ = (value & cmdbits::kAutoIncrement) != 0;
  if (value & cmdbits::kClearInterrupt) manual_interrupt_ = false;
  if (value & cmdbits::kRaiseInterrupt) manual_interrupt_ = true;
  if (value & cmdbits::kSoftReset) {
    apply_reset();
    // Commands only execute inside observe_frame, so the pulse is anchored
    // at the frame's arrival instant at this node.
    reset_until_ = observe_at_ + link_->reset_pulse();
  }
  notify_pending();
}

std::size_t SlaveDevice::host_send(std::span<const std::uint8_t> bytes) {
  if (!alive_) return 0;  // the board CPU is down with the node
  std::size_t accepted = 0;
  for (std::uint8_t b : bytes) {
    if (outbox_.size() >= config_.outbox_capacity) break;
    outbox_.push_back(b);
    ++accepted;
  }
  notify_pending();
  return accepted;  // pending_interrupt() is implied by a non-empty outbox
}

std::vector<std::uint8_t> SlaveDevice::host_receive() {
  if (!alive_) return {};  // the board CPU is down with the node
  std::vector<std::uint8_t> out(inbox_.begin(), inbox_.end());
  inbox_.clear();
  return out;
}

void SlaveDevice::map_io(std::uint16_t addr, IoRead read, IoWrite write) {
  TB_REQUIRE_MSG(read || write, "an I/O mapping needs at least one direction");
  io_map_[addr] = IoMapping{std::move(read), std::move(write)};
}

void SlaveDevice::set_spi(std::unique_ptr<SpiPeripheral> spi) {
  TB_REQUIRE(spi != nullptr);
  spi_ = std::move(spi);
}

std::uint8_t SlaveDevice::memory_at(std::uint16_t addr) const {
  TB_REQUIRE(addr < memory_.size());
  return memory_[addr];
}

void SlaveDevice::set_memory(std::uint16_t addr, std::uint8_t value) {
  TB_REQUIRE(addr < memory_.size());
  memory_[addr] = value;
}

std::uint8_t SlaveDevice::flags() const {
  std::uint8_t f = 0;
  if (pending_interrupt()) f |= flagbits::kPendingInterrupt;
  if (!outbox_.empty()) f |= flagbits::kOutboxNonEmpty;
  if (!inbox_.empty()) f |= flagbits::kInboxNonEmpty;
  if (inbox_overflow_) f |= flagbits::kInboxOverflow;
  if (was_reset_) f |= flagbits::kWasReset;
  return f;
}

}  // namespace tb::wire
