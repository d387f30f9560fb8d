#include "src/wire/master.hpp"

#include "src/util/assert.hpp"

namespace tb::wire {

const char* to_string(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kTimeout: return "timeout";
    case WireStatus::kCrcError: return "crc-error";
    case WireStatus::kNak: return "nak";
    case WireStatus::kBadResponse: return "bad-response";
  }
  return "?";
}

Master::Master(BusModel& bus, MasterConfig config)
    : bus_(&bus),
      config_(config),
      stale_after_(bus.link().reset_timeout().scaled(0.5)),
      mutex_(bus.simulator()) {}

WireStatus Master::status_of(const CycleResult& r) {
  switch (r.status) {
    case CycleResult::Status::kOk:
      if (r.rx.has_value() && r.rx->type == RxType::kNak) return WireStatus::kNak;
      return WireStatus::kOk;
    case CycleResult::Status::kTimeout:
      return WireStatus::kTimeout;
    case CycleResult::Status::kCrcError:
      return WireStatus::kCrcError;
  }
  return WireStatus::kBadResponse;
}

void Master::invalidate_node(std::uint8_t node) { node_cache_.erase(node); }

void Master::invalidate_if_stale() {
  const sim::Time idle = bus_->simulator().now() - last_cycle_at_;
  if (idle > stale_after_) {
    selected_address_.reset();
    node_cache_.clear();
  }
}

sim::Task<CycleResult> Master::transact(TxFrame frame, bool expect_reply,
                                        RetryPolicy policy) {
  last_cycle_at_ = bus_->simulator().now();
  const int attempts =
      policy == RetryPolicy::kNone ? 1 : 1 + bus_->link().retry_limit;
  TransactTrace trace;
  trace.start = bus_->simulator().now();
  trace.tx_word = frame.encode();
  trace.expect_reply = expect_reply;
  CycleResult result;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    ++stats_.frames_sent;
    ++trace.attempts;
    result = co_await bus_->cycle(frame, expect_reply);
    last_cycle_at_ = bus_->simulator().now();
    if (result.status == CycleResult::Status::kOk) break;
    // A failed cycle leaves slave-side state unknown: drop every cache.
    selected_address_.reset();
    node_cache_.clear();
    if (policy == RetryPolicy::kTimeoutOnly &&
        result.status != CycleResult::Status::kTimeout) {
      break;  // command may have executed: do not repeat it
    }
  }
  trace.end = bus_->simulator().now();
  trace.status = status_of(result);
  on_transact_.emit(trace);
  co_return result;
}

bool Master::selected(std::uint8_t address) {
  invalidate_if_stale();
  if (config_.cache_state && selected_address_ == address) {
    ++stats_.select_skips;
    return true;
  }
  return false;
}

sim::Task<WireStatus> Master::select(std::uint8_t address) {
  const bool broadcast = node_id_of_address(address) == kBroadcastNodeId;
  TxFrame frame{Command::kSelect, address};
  CycleResult r = co_await transact(
      frame, /*expect_reply=*/!broadcast,
      broadcast ? RetryPolicy::kNone : RetryPolicy::kFull);
  const WireStatus status = status_of(r);
  if (status == WireStatus::kOk) {
    // Broadcast selection is not cachable as a responder target.
    if (broadcast) {
      selected_address_.reset();
    } else {
      selected_address_ = address;
    }
  }
  co_return status;
}

bool Master::addressed(std::uint8_t node, std::uint16_t addr) {
  if (config_.cache_state && node_cache_[node].address_ptr == addr) {
    ++stats_.address_skips;
    return true;
  }
  return false;
}

sim::Task<WireStatus> Master::write_address(std::uint8_t node,
                                            std::uint16_t addr) {
  node_cache_[node].address_ptr.reset();
  // The address pointer is a shift register: always write high then low.
  // Retrying the whole pair is safe — however many stray shifts a lost
  // frame caused, rewriting (hi, lo) lands on the intended value.
  WireStatus status = WireStatus::kTimeout;
  for (int attempt = 0; attempt <= bus_->link().retry_limit; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    status = WireStatus::kOk;
    for (const std::uint8_t byte : {static_cast<std::uint8_t>(addr >> 8),
                                    static_cast<std::uint8_t>(addr)}) {
      TxFrame frame{Command::kWriteAddress, byte};
      CycleResult r = co_await transact(frame, /*expect_reply=*/true,
                                        RetryPolicy::kNone);
      status = status_of(r);
      if (status != WireStatus::kOk) break;
    }
    if (status == WireStatus::kOk) {
      node_cache_[node].address_ptr = addr;
      co_return status;
    }
    if (status == WireStatus::kNak) break;
  }
  co_return status;
}

bool Master::auto_increment_is(std::uint8_t node, bool enabled) {
  return config_.cache_state && node_cache_[node].auto_increment == enabled;
}

sim::Task<WireStatus> Master::write_auto_increment(std::uint8_t node,
                                                   bool enabled) {
  TxFrame frame{Command::kWriteCommand,
                enabled ? cmdbits::kAutoIncrement : std::uint8_t{0}};
  CycleResult r = co_await transact(frame, /*expect_reply=*/true,
                                    RetryPolicy::kFull);
  const WireStatus status = status_of(r);
  if (status == WireStatus::kOk) node_cache_[node].auto_increment = enabled;
  co_return status;
}

sim::Task<ByteResult> Master::reg_read(std::uint8_t node, SysReg reg) {
  ByteResult out;
  const std::uint8_t address = system_address(node);
  const auto reg_addr = static_cast<std::uint16_t>(reg);
  out.status = WireStatus::kOk;
  if (!selected(address)) out.status = co_await select(address);
  if (out.status != WireStatus::kOk) co_return out;
  if (!addressed(node, reg_addr)) {
    out.status = co_await write_address(node, reg_addr);
  }
  if (out.status != WireStatus::kOk) co_return out;
  // FIFO-port reads pop state: retry only on timeout (pop did not happen).
  const bool is_port = (reg == SysReg::kOutboxPort);
  CycleResult r = co_await transact(
      TxFrame{Command::kReadData, 0}, /*expect_reply=*/true,
      is_port ? RetryPolicy::kTimeoutOnly : RetryPolicy::kFull);
  out.status = status_of(r);
  if (out.status != WireStatus::kOk) co_return out;
  if (r.rx->type != RxType::kData) {
    out.status = WireStatus::kBadResponse;
    co_return out;
  }
  out.value = r.rx->data;
  co_return out;
}

sim::Task<PingResult> Master::ping(std::uint8_t node) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  PingResult out;
  invalidate_if_stale();
  // A SELECT's status reply already carries id + interrupt status, so an
  // uncached probe costs exactly one frame either way.
  CycleResult r;
  if (config_.cache_state && selected_address_.has_value() &&
      node_id_of_address(*selected_address_) == node) {
    ++stats_.select_skips;
    r = co_await transact(TxFrame{Command::kPing, 0}, true, RetryPolicy::kFull);
  } else {
    r = co_await transact(TxFrame{Command::kSelect, memory_address(node)}, true,
                          RetryPolicy::kFull);
    if (r.ok()) selected_address_ = memory_address(node);
  }
  out.status = status_of(r);
  if (out.status != WireStatus::kOk) {
    ++stats_.failures;
    co_return out;
  }
  if (r.rx->type != RxType::kStatus) {
    out.status = WireStatus::kBadResponse;
    ++stats_.failures;
    co_return out;
  }
  out.interrupt = r.rx->status_interrupt();
  out.node_id = r.rx->status_node_id();
  co_return out;
}

sim::Task<std::vector<std::uint8_t>> Master::enumerate(std::uint8_t first,
                                                       std::uint8_t last) {
  TB_REQUIRE(first <= last);
  TB_REQUIRE(last <= kMaxNodeId);
  std::vector<std::uint8_t> present;
  for (int node = first; node <= last; ++node) {
    PingResult r = co_await ping(static_cast<std::uint8_t>(node));
    if (r.ok()) present.push_back(static_cast<std::uint8_t>(node));
  }
  co_return present;
}

sim::Task<ByteResult> Master::read_sys_reg(std::uint8_t node, SysReg reg) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  ByteResult out = co_await reg_read(node, reg);
  if (!out.ok()) ++stats_.failures;
  co_return out;
}

sim::Task<WireStatus> Master::write_command(std::uint8_t node,
                                            std::uint8_t bits) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  const std::uint8_t address = memory_address(node);
  WireStatus status = WireStatus::kOk;
  if (!selected(address)) status = co_await select(address);
  if (status == WireStatus::kOk) {
    CycleResult r = co_await transact(TxFrame{Command::kWriteCommand, bits},
                                      true, RetryPolicy::kFull);
    status = status_of(r);
    if (status == WireStatus::kOk) {
      node_cache_[node].auto_increment = (bits & cmdbits::kAutoIncrement) != 0;
      if (bits & cmdbits::kSoftReset) invalidate_node(node);
    }
  }
  if (status != WireStatus::kOk) ++stats_.failures;
  co_return status;
}

sim::Task<WireStatus> Master::broadcast_command(std::uint8_t bits) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  const std::uint8_t address = memory_address(kBroadcastNodeId);
  WireStatus status = WireStatus::kOk;
  if (!selected(address)) status = co_await select(address);
  if (status == WireStatus::kOk) {
    CycleResult r = co_await transact(TxFrame{Command::kWriteCommand, bits},
                                      /*expect_reply=*/false,
                                      RetryPolicy::kNone);
    status = status_of(r);
    // Every slave's state may have changed; drop all caches.
    node_cache_.clear();
    selected_address_.reset();
  }
  if (status != WireStatus::kOk) ++stats_.failures;
  co_return status;
}

sim::Task<ByteResult> Master::spi_transfer(std::uint8_t node,
                                           std::uint8_t mosi) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  ByteResult out;
  const std::uint8_t address = memory_address(node);
  out.status = WireStatus::kOk;
  if (!selected(address)) out.status = co_await select(address);
  if (out.status == WireStatus::kOk) {
    // An SPI exchange has side effects; a timeout proves it never ran.
    CycleResult r = co_await transact(TxFrame{Command::kSpiTransfer, mosi},
                                      true, RetryPolicy::kTimeoutOnly);
    out.status = status_of(r);
    if (out.status == WireStatus::kOk) {
      if (r.rx->type == RxType::kFlags) {
        out.value = r.rx->data;
      } else {
        out.status = WireStatus::kBadResponse;
      }
    }
  }
  if (!out.ok()) ++stats_.failures;
  co_return out;
}

sim::Task<WireStatus> Master::write_memory(std::uint8_t node,
                                           std::uint16_t addr,
                                           std::span<const std::uint8_t> data) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  const std::uint8_t address = memory_address(node);
  const bool auto_inc = data.size() > 1;
  WireStatus status = WireStatus::kOk;
  if (!selected(address)) status = co_await select(address);
  if (status == WireStatus::kOk && !auto_increment_is(node, auto_inc))
    status = co_await write_auto_increment(node, auto_inc);
  if (status == WireStatus::kOk && !addressed(node, addr))
    status = co_await write_address(node, addr);

  for (std::size_t i = 0; status == WireStatus::kOk && i < data.size(); ++i) {
    // A lost RX may leave the pointer advanced; re-establish slave state
    // before each retry instead of blindly resending (which would
    // double-write past the intended range).
    int attempts_left = 1 + bus_->link().retry_limit;
    const auto at = static_cast<std::uint16_t>(addr + i);
    while (true) {
      status = WireStatus::kOk;
      if (!selected(address)) status = co_await select(address);
      if (status == WireStatus::kOk && !auto_increment_is(node, auto_inc))
        status = co_await write_auto_increment(node, auto_inc);
      if (status == WireStatus::kOk && !addressed(node, at))
        status = co_await write_address(node, at);
      if (status == WireStatus::kOk) {
        CycleResult r = co_await transact(TxFrame{Command::kWriteData, data[i]},
                                          true, RetryPolicy::kTimeoutOnly);
        status = status_of(r);
        if (status == WireStatus::kOk) {
          if (auto_inc) {
            node_cache_[node].address_ptr =
                static_cast<std::uint16_t>(addr + i + 1);
          }
          break;
        }
        if (status == WireStatus::kNak) break;
      }
      if (--attempts_left <= 0) break;
      ++stats_.retries;
    }
  }
  if (status != WireStatus::kOk) ++stats_.failures;
  co_return status;
}

sim::Task<BlockResult> Master::read_memory(std::uint8_t node,
                                           std::uint16_t addr,
                                           std::size_t length) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  BlockResult out;
  const std::uint8_t address = memory_address(node);
  const bool auto_inc = length > 1;
  out.status = WireStatus::kOk;
  if (!selected(address)) out.status = co_await select(address);
  if (out.status == WireStatus::kOk && !auto_increment_is(node, auto_inc))
    out.status = co_await write_auto_increment(node, auto_inc);
  if (out.status == WireStatus::kOk && !addressed(node, addr))
    out.status = co_await write_address(node, addr);

  for (std::size_t i = 0; out.status == WireStatus::kOk && i < length; ++i) {
    int attempts_left = 1 + bus_->link().retry_limit;
    const auto at = static_cast<std::uint16_t>(addr + i);
    while (true) {
      out.status = WireStatus::kOk;
      if (!selected(address)) out.status = co_await select(address);
      if (out.status == WireStatus::kOk && !auto_increment_is(node, auto_inc))
        out.status = co_await write_auto_increment(node, auto_inc);
      if (out.status == WireStatus::kOk && !addressed(node, at))
        out.status = co_await write_address(node, at);
      if (out.status == WireStatus::kOk) {
        CycleResult r = co_await transact(TxFrame{Command::kReadData, 0}, true,
                                          RetryPolicy::kTimeoutOnly);
        out.status = status_of(r);
        if (out.status == WireStatus::kOk) {
          if (r.rx->type != RxType::kData) {
            out.status = WireStatus::kBadResponse;
            break;
          }
          out.data.push_back(r.rx->data);
          if (auto_inc) {
            node_cache_[node].address_ptr =
                static_cast<std::uint16_t>(addr + i + 1);
          }
          break;
        }
        if (out.status == WireStatus::kNak) break;
      }
      if (--attempts_left <= 0) break;
      ++stats_.retries;
    }
  }
  if (!out.ok()) ++stats_.failures;
  co_return out;
}

sim::Task<WordResult> Master::read_outbox_depth(std::uint8_t node) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  WordResult out;
  ByteResult lo = co_await reg_read(node, SysReg::kDmaCountLo);
  if (!lo.ok()) {
    out.status = lo.status;
    ++stats_.failures;
    co_return out;
  }
  ByteResult hi = co_await reg_read(node, SysReg::kDmaCountHi);
  if (!hi.ok()) {
    out.status = hi.status;
    ++stats_.failures;
    co_return out;
  }
  out.status = WireStatus::kOk;
  out.value = static_cast<std::uint16_t>((hi.value << 8) | lo.value);
  co_return out;
}

sim::Task<BlockResult> Master::outbox_drain(std::uint8_t node,
                                            std::size_t max_bytes) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  BlockResult out;
  out.status = WireStatus::kOk;
  for (std::size_t i = 0; i < max_bytes; ++i) {
    ByteResult b = co_await reg_read(node, SysReg::kOutboxPort);
    if (b.status == WireStatus::kNak) break;  // FIFO drained
    if (!b.ok()) {
      out.status = b.status;  // partial data still returned
      break;
    }
    out.data.push_back(b.value);
  }
  if (!out.ok()) ++stats_.failures;
  co_return out;
}

sim::Task<WireStatus> Master::inbox_push(std::uint8_t node,
                                         std::span<const std::uint8_t> bytes,
                                         std::size_t* delivered) {
  co_await mutex_.lock();
  sim::CoMutex::Guard guard(mutex_);
  ++stats_.operations;
  WireStatus status = WireStatus::kOk;
  std::size_t count = 0;
  const std::uint8_t address = system_address(node);
  const auto port = static_cast<std::uint16_t>(SysReg::kInboxPort);
  for (std::uint8_t byte : bytes) {
    if (!selected(address)) status = co_await select(address);
    if (status != WireStatus::kOk) break;
    if (!addressed(node, port)) status = co_await write_address(node, port);
    if (status != WireStatus::kOk) break;
    CycleResult r = co_await transact(TxFrame{Command::kWriteData, byte},
                                      /*expect_reply=*/true,
                                      RetryPolicy::kTimeoutOnly);
    status = status_of(r);
    // A corrupted RX on the data cycle still proves execution: the slave
    // stores the byte before emitting its status reply, and a timeout-only
    // transact resends solely after silent cycles, so exactly one attempt
    // ever reached the slave. The ack is lost, the byte is not. Stopping
    // here would leave a truncated segment in the destination inbox and
    // desynchronize the receiver's stream parser into the next segment —
    // one flipped ack bit must not cost a cascade of good segments. (The
    // rare corrupted *NAK* of a full inbox is miscounted as delivered; the
    // sticky overflow flag and the segment CRC own that case.)
    if (status == WireStatus::kCrcError ||
        status == WireStatus::kBadResponse) {
      ++stats_.ack_losses;
      status = WireStatus::kOk;
    }
    if (status != WireStatus::kOk) break;
    ++count;
  }
  if (delivered != nullptr) *delivered = count;
  if (status != WireStatus::kOk) ++stats_.failures;
  co_return status;
}

}  // namespace tb::wire
