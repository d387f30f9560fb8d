// TpWIRE master controller (paper §3.1).
//
// "The Master is responsible for initiating all communications over the
// network." This class turns the raw communication cycle of OneWireBus into
// the operations applications need: node polling, memory block transfer,
// system-register access and mailbox shuttling — with the spec's retry rule
// ("the Master resends the TX frame a predetermined number of times before
// signaling an error") and an optional selection/address cache that skips
// redundant SELECT / WRITE_ADDR frames (ablated by bench_retry_ablation).
//
// All public operations are coroutines and internally serialize on a
// coroutine mutex, so any number of application processes may issue
// operations concurrently; multi-frame sequences never interleave.
//
// Retry semantics per operation class:
//  * idempotent frames (SELECT, PING, reads of plain registers/memory
//    without auto-increment) retry transparently at frame level;
//  * auto-increment block transfers re-seek the address pointer before
//    retrying, because a lost RX frame leaves the slave's pointer advanced;
//  * mailbox FIFO pops retry only on timeout — a pop whose RX was corrupted
//    already removed the byte from the outbox, and its value is gone, so
//    the enclosing segment is surrendered to the transport layer's CRC
//    (src/mw/segment.hpp);
//  * mailbox FIFO pushes treat a corrupted RX as delivered — the slave
//    stores the byte before emitting its status reply, so a bad RX word is
//    a lost ack, not a lost byte, and the push sequence continues rather
//    than leaving a truncated segment in the destination inbox.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/comutex.hpp"
#include "src/sim/process.hpp"
#include "src/sim/signal.hpp"
#include "src/wire/bus_model.hpp"

namespace tb::wire {

enum class WireStatus : std::uint8_t {
  kOk,
  kTimeout,   ///< retries exhausted without a valid RX frame
  kCrcError,  ///< retries exhausted, last failure was a corrupted RX
  kNak,       ///< slave rejected the command (not retried)
  kBadResponse,  ///< RX arrived with an unexpected TYPE
};

const char* to_string(WireStatus status);

struct ByteResult {
  WireStatus status = WireStatus::kTimeout;
  std::uint8_t value = 0;
  bool ok() const { return status == WireStatus::kOk; }
};

struct WordResult {
  WireStatus status = WireStatus::kTimeout;
  std::uint16_t value = 0;
  bool ok() const { return status == WireStatus::kOk; }
};

struct BlockResult {
  WireStatus status = WireStatus::kTimeout;
  std::vector<std::uint8_t> data;
  bool ok() const { return status == WireStatus::kOk; }
};

struct PingResult {
  WireStatus status = WireStatus::kTimeout;
  bool interrupt = false;
  std::uint8_t node_id = 0;
  bool ok() const { return status == WireStatus::kOk; }
};

struct MasterConfig {
  /// Skip SELECT / WRITE_ADDR frames when the cached slave state already
  /// matches. Disabling reproduces a naive master for the ablation bench.
  bool cache_state = true;
};

class Master {
 public:
  explicit Master(BusModel& bus, MasterConfig config = {});

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  // --- polling ----------------------------------------------------------

  /// One-frame liveness/interrupt probe (SELECT when not cached, else PING).
  sim::Task<PingResult> ping(std::uint8_t node);

  /// Bus enumeration: probes node ids [first, last] and returns those that
  /// answered — how a master discovers its daisy chain at startup. Absent
  /// ids each cost (1 + retry_limit) timeout cycles, so scans of the whole
  /// 0..126 space are slow by construction.
  sim::Task<std::vector<std::uint8_t>> enumerate(std::uint8_t first = 0,
                                                 std::uint8_t last = kMaxNodeId);

  // --- registers ---------------------------------------------------------

  sim::Task<ByteResult> read_sys_reg(std::uint8_t node, SysReg reg);

  /// Writes the command register via the dedicated WRITE_CMD frame.
  sim::Task<WireStatus> write_command(std::uint8_t node, std::uint8_t bits);

  /// Broadcast a command-register write to every slave (no replies).
  sim::Task<WireStatus> broadcast_command(std::uint8_t bits);

  sim::Task<ByteResult> spi_transfer(std::uint8_t node, std::uint8_t mosi);

  // --- memory block transfer (DMA auto-increment) -------------------------

  sim::Task<WireStatus> write_memory(std::uint8_t node, std::uint16_t addr,
                                     std::span<const std::uint8_t> data);
  sim::Task<BlockResult> read_memory(std::uint8_t node, std::uint16_t addr,
                                     std::size_t length);

  // --- mailboxes (middleware transport) -----------------------------------

  /// Outbox depth via the DMA counter registers.
  sim::Task<WordResult> read_outbox_depth(std::uint8_t node);

  /// Pops up to `max_bytes` from the node's outbox. Stops early when the
  /// FIFO drains (port NAK). Single-attempt frames; see class comment.
  sim::Task<BlockResult> outbox_drain(std::uint8_t node, std::size_t max_bytes);

  /// Pushes bytes into the node's inbox. Stops on the first failure and
  /// reports how many bytes were surely delivered via `*delivered`.
  sim::Task<WireStatus> inbox_push(std::uint8_t node,
                                   std::span<const std::uint8_t> bytes,
                                   std::size_t* delivered = nullptr);

  // --- introspection -------------------------------------------------------

  struct Stats {
    std::uint64_t operations = 0;
    std::uint64_t frames_sent = 0;     ///< bus cycles issued (incl. retries)
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;        ///< operations that returned non-Ok
    std::uint64_t select_skips = 0;    ///< SELECTs avoided by the cache
    std::uint64_t address_skips = 0;   ///< WRITE_ADDR pairs avoided
    std::uint64_t ack_losses = 0;      ///< inbox pushes whose ack was lost
  };
  const Stats& stats() const { return stats_; }

  /// One frame-level transaction (a TX frame plus all its retries) as the
  /// master resolved it — the hook invariant checkers use to bound retry
  /// counts and transaction latency.
  struct TransactTrace {
    sim::Time start;
    sim::Time end;
    std::uint16_t tx_word = 0;
    bool expect_reply = true;
    int attempts = 0;           ///< bus cycles spent, retries included
    WireStatus status = WireStatus::kTimeout;
  };

  /// Fires when a frame transaction resolves (every attempt exhausted or a
  /// valid RX received), in completion order.
  sim::Signal<const TransactTrace&>& on_transact() { return on_transact_; }

  BusModel& bus() { return *bus_; }

 private:
  /// Per-node mirror of slave state the master may rely on when caching.
  struct NodeCache {
    std::optional<std::uint16_t> address_ptr;
    std::optional<bool> auto_increment;
  };

  /// Frame retry policy. kTimeoutOnly exists for FIFO-port operations: an
  /// RX timeout proves the slave never executed the command (the TX frame
  /// was corrupted in flight, every slave ignored it), so resending is
  /// side-effect free — while after a CRC-corrupted RX the pop/push *did*
  /// happen and a blind resend would duplicate it.
  enum class RetryPolicy { kNone, kTimeoutOnly, kFull };

  // Unlocked internals: callers hold mutex_.
  sim::Task<CycleResult> transact(TxFrame frame, bool expect_reply,
                                  RetryPolicy policy);

  // Cached slave state. Each check returns true on a cache hit (counting
  // any skipped frame) and costs no coroutine frame; on a miss the caller
  // co_awaits the matching frame sequence:
  //   if (!selected(a)) status = co_await select(a);
  bool selected(std::uint8_t address);
  sim::Task<WireStatus> select(std::uint8_t address);
  bool addressed(std::uint8_t node, std::uint16_t addr);
  sim::Task<WireStatus> write_address(std::uint8_t node, std::uint16_t addr);
  bool auto_increment_is(std::uint8_t node, bool enabled);
  sim::Task<WireStatus> write_auto_increment(std::uint8_t node, bool enabled);
  sim::Task<ByteResult> reg_read(std::uint8_t node, SysReg reg);
  void invalidate_node(std::uint8_t node);
  static WireStatus status_of(const CycleResult& r);

  /// Drops every cache when the bus has been idle long enough for the
  /// slave watchdogs to have fired (reset deselects and clears slave
  /// state, so cached knowledge is wrong). Conservative at half the
  /// 2048-bit reset timeout.
  void invalidate_if_stale();

  BusModel* bus_;
  MasterConfig config_;
  sim::Time stale_after_;  ///< the idle time invalidate_if_stale() checks
  sim::CoMutex mutex_;
  std::optional<std::uint8_t> selected_address_;  ///< nullopt after broadcast
  std::unordered_map<std::uint8_t, NodeCache> node_cache_;
  sim::Time last_cycle_at_;  ///< bus activity timestamp for staleness
  sim::Signal<const TransactTrace&> on_transact_;
  Stats stats_;
};

}  // namespace tb::wire
