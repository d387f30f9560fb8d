// TpWIRE slave node model (paper §3.1).
//
// A slave is the bus controller of one Theseus board. It exposes:
//  * a bus-side interface — observe_frame(), called by the bus as the TX
//    frame passes through the node's position in the daisy chain;
//  * a host-side interface — the board CPU's view: outbox (board -> master),
//    inbox (master -> board), interrupt raising, and an inbox-byte signal.
//
// Per the spec: each node owns two node addresses (even = memory /
// memory-mapped I/O set, odd = system register set: command, flags, DMA
// counter, SPI); a slave resets itself when no valid TX frame arrives within
// 2048 bit periods and stays in reset for 33 bit periods; the broadcast
// pseudo-node 127 makes all slaves execute with no replies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/signal.hpp"
#include "src/sim/simulator.hpp"
#include "src/wire/config.hpp"
#include "src/wire/frame.hpp"

namespace tb::wire {

/// System register set, addressed through the node's odd (system) address.
enum class SysReg : std::uint8_t {
  kCommand = 0,     ///< r/w command register (see cmdbits)
  kFlags = 1,       ///< r/o flags register (see flagbits); read clears sticky bits
  kDmaCountLo = 2,  ///< r/o outbox depth, low byte
  kDmaCountHi = 3,  ///< r/o outbox depth, high byte
  kSpiData = 4,     ///< r = last SPI result, w = start an SPI exchange
  kOutboxPort = 5,  ///< r/o FIFO port: pops one board->master byte
  kInboxPort = 6,   ///< w/o FIFO port: pushes one master->board byte
  kNodeId = 7,      ///< r/o node id
};

/// Command-register bit assignments.
namespace cmdbits {
inline constexpr std::uint8_t kAutoIncrement = 0x01;  ///< DMA address auto-inc
inline constexpr std::uint8_t kClearInterrupt = 0x02;
inline constexpr std::uint8_t kSoftReset = 0x04;
inline constexpr std::uint8_t kRaiseInterrupt = 0x08;  ///< test hook
}  // namespace cmdbits

/// Flags-register bit assignments.
namespace flagbits {
inline constexpr std::uint8_t kPendingInterrupt = 0x01;
inline constexpr std::uint8_t kOutboxNonEmpty = 0x02;
inline constexpr std::uint8_t kInboxNonEmpty = 0x04;
inline constexpr std::uint8_t kInboxOverflow = 0x08;  ///< sticky
inline constexpr std::uint8_t kWasReset = 0x10;       ///< sticky
}  // namespace flagbits

/// Devices hanging off the slave's SPI port implement this.
class SpiPeripheral {
 public:
  virtual ~SpiPeripheral() = default;
  /// Full-duplex byte exchange: consumes `mosi`, returns MISO.
  virtual std::uint8_t exchange(std::uint8_t mosi) = 0;
};

/// Default SPI device: echoes the previous byte written (one-deep shift).
class ShiftSpi : public SpiPeripheral {
 public:
  std::uint8_t exchange(std::uint8_t mosi) override {
    const std::uint8_t out = last_;
    last_ = mosi;
    return out;
  }

 private:
  std::uint8_t last_ = 0;
};

struct SlaveConfig {
  std::size_t inbox_capacity = 1024;
  std::size_t outbox_capacity = 1024;
};

class SlaveDevice {
 public:
  /// `link` supplies the protocol timing constants (reset watchdog / pulse);
  /// it must outlive the slave.
  SlaveDevice(sim::Simulator& sim, std::uint8_t node_id, const LinkConfig& link,
              SlaveConfig config = {});

  SlaveDevice(const SlaveDevice&) = delete;
  SlaveDevice& operator=(const SlaveDevice&) = delete;
  ~SlaveDevice();

  std::uint8_t node_id() const { return node_id_; }

  // --- bus side ---------------------------------------------------------

  /// Called by the bus when the (possibly corrupted) TX word passes this
  /// node at the current simulated time. Returns the RX response when this
  /// slave is the selected, non-broadcast target of a valid frame.
  std::optional<RxFrame> observe_frame(std::uint16_t word) {
    return observe_frame(word, sim_->now());
  }

  /// Observation at an explicit time: the frame-level bus computes each
  /// node's word-arrival instant in closed form instead of advancing the
  /// simulation clock hop by hop, so `at` may lie ahead of now(). All
  /// time-dependent slave behavior (watchdog, reset pulse, last-valid-frame
  /// bookkeeping) uses `at`; with `at == now()` this is the bit-accurate
  /// path unchanged.
  std::optional<RxFrame> observe_frame(std::uint16_t word, sim::Time at);

  /// True when the node has a pending interrupt (board request or non-empty
  /// outbox) — this is what sets the INT bit of passing RX frames.
  bool pending_interrupt() const;

  /// True when the node is inside its 33-bit-period reset pulse.
  bool in_reset() const { return sim_->now() < reset_until_; }

  bool selected() const {
    sync_feed();
    return selected_;
  }

  bool broadcast_selected() const { return broadcast_selected_; }

  // --- host (board CPU) side ---------------------------------------------

  /// Queues bytes for the master to collect; raises the interrupt line.
  /// Returns the number of bytes accepted (outbox capacity may truncate).
  std::size_t host_send(std::span<const std::uint8_t> bytes);

  /// Drains everything the master has pushed into the inbox.
  std::vector<std::uint8_t> host_receive();

  std::size_t outbox_depth() const { return outbox_.size(); }
  std::size_t inbox_depth() const { return inbox_.size(); }

  /// Fires for every byte the master pushes into the inbox.
  sim::Signal<std::uint8_t>& on_inbox_byte() { return on_inbox_byte_; }

  /// Board-triggered interrupt request (e.g. a sensor event).
  void raise_interrupt() {
    manual_interrupt_ = true;
    notify_pending();
  }

  // --- fault injection (tb::fault) ----------------------------------------

  /// Power failure: the node stops decoding frames and never responds (the
  /// repeater keeps passing words down the chain, so the rest of the bus
  /// still works). Mailboxes and registers survive until restart wipes them.
  void kill();

  /// Power restore: behaves like a cold boot — full reset (mailboxes wiped,
  /// sticky WAS_RESET set) followed by the normal 33-bit reset pulse.
  void restart();

  bool alive() const { return alive_; }

  /// Hardware fault: the INT line is stuck asserted. Every passing RX frame
  /// reports a pending interrupt regardless of actual mailbox state.
  void set_stuck_interrupt(bool stuck) {
    stuck_interrupt_ = stuck;
    notify_pending();
  }
  bool stuck_interrupt() const { return stuck_interrupt_; }

  void set_spi(std::unique_ptr<SpiPeripheral> spi);

  /// Memory-mapped I/O: overrides the RAM byte at `addr` with device
  /// callbacks (the spec's "memory and memory mapped I/O register set").
  /// Pass nullptr for a direction to NAK accesses of that kind.
  using IoRead = std::function<std::uint8_t()>;
  using IoWrite = std::function<void(std::uint8_t)>;
  void map_io(std::uint16_t addr, IoRead read, IoWrite write);

  // --- introspection (tests / device programs) ----------------------------

  std::uint8_t memory_at(std::uint16_t addr) const;
  void set_memory(std::uint16_t addr, std::uint8_t value);
  std::size_t memory_size() const { return memory_.size(); }
  std::uint16_t address_pointer() const { return address_ptr_; }
  std::uint8_t flags() const;

  struct Stats {
    std::uint64_t frames_observed = 0;   ///< any word passing the node
    std::uint64_t valid_frames = 0;      ///< decoded OK
    std::uint64_t commands_executed = 0; ///< executed while selected
    std::uint64_t resets = 0;            ///< watchdog + soft resets
    std::uint64_t naks = 0;
    std::uint64_t kills = 0;             ///< injected power failures
    std::uint64_t restarts = 0;          ///< injected power restores
  };
  const Stats& stats() const {
    sync_feed();
    return stats_;
  }

  // --- frame-level bus hooks (src/wire/frame_bus.hpp) ---------------------

  /// The frame-level bus touches only the responding slave per cycle; for
  /// everyone else it publishes the word into this shared feed. Slaves fold
  /// the feed in lazily (sync_feed) the next time their state is read, so
  /// an N-slave cycle costs O(1) instead of O(N).
  struct FrameFeed {
    std::uint64_t words = 0;        ///< every word that crossed the medium
    std::uint64_t valid_words = 0;  ///< words that decoded as valid frames
    /// End-of-TX at the master of the last valid word; slave i saw it at
    /// last_valid_base + hop_delay * (i + 1).
    sim::Time last_valid_base = sim::Time::zero();
    std::uint64_t select_serial = 0;  ///< bumped per unicast SELECT in the feed
    std::uint8_t select_address = 0;  ///< address byte of that SELECT
  };

  /// Change notifications the frame-level bus subscribes to so its central
  /// picture (selection, pending-interrupt set, watchdog uniformity) stays
  /// coherent without polling the slaves.
  class BusListener {
   public:
    virtual ~BusListener() = default;
    /// This slave's state diverged in a way the feed cannot express
    /// (reset, power event): the bus must fall back to full observation.
    virtual void on_disturbed(int chain_pos) = 0;
    /// pending_interrupt() flipped.
    virtual void on_pending_changed(int chain_pos, bool pending) = 0;
    /// The slave object is being destroyed while the bus still holds it:
    /// drop every reference to it. (Attach order puts no constraint on
    /// destruction order, so either side may go first.)
    virtual void on_slave_destroyed(int /*chain_pos*/) {}
  };

 private:
  friend class FrameLevelBus;

  std::optional<RxFrame> execute(const TxFrame& frame);
  std::optional<RxFrame> data_read();
  std::optional<RxFrame> data_write(std::uint8_t value);
  void write_command_register(std::uint8_t value);
  void apply_reset();
  void check_watchdog(sim::Time at);
  RxFrame nak();

  /// Binds this slave to a frame-level bus feed at chain position `pos`.
  void join_frame_bus(const FrameFeed* feed, BusListener* listener, int pos);

  /// Folds feed entries published since the last sync into local state
  /// (frame counters, watchdog pet, selection). Logically const: lazy
  /// materialization of state the bit-accurate model updates eagerly.
  void sync_feed() const;
  void sync_feed_mut();

  /// Marks the current feed state as already applied — called after a
  /// direct observe_frame() so the slave does not double-count the word it
  /// just processed itself.
  void mark_feed_consumed();

  /// Fires BusListener::on_pending_changed when pending_interrupt() flipped
  /// since the last notification. Call after any mutation that can change
  /// it. No-op without a listener (bit-accurate buses never install one).
  void notify_pending();

  sim::Simulator* sim_;
  std::uint8_t node_id_;
  const LinkConfig* link_;
  SlaveConfig config_;

  struct IoMapping {
    IoRead read;
    IoWrite write;
  };

  std::vector<std::uint8_t> memory_;
  std::unordered_map<std::uint16_t, IoMapping> io_map_;
  std::uint16_t address_ptr_ = 0;
  bool auto_increment_ = false;
  bool selected_ = false;        ///< selected as the unique responder
  bool broadcast_selected_ = false;  ///< executing under broadcast selection
  bool system_space_ = false;    ///< odd node address selected
  bool manual_interrupt_ = false;
  bool alive_ = true;            ///< false between kill() and restart()
  bool stuck_interrupt_ = false; ///< INT line stuck asserted (fault)
  std::uint8_t spi_result_ = 0;
  std::unique_ptr<SpiPeripheral> spi_;

  std::deque<std::uint8_t> inbox_;
  std::deque<std::uint8_t> outbox_;
  bool inbox_overflow_ = false;  ///< sticky until flags read
  bool was_reset_ = false;       ///< sticky until flags read

  bool seen_valid_frame_ = false;
  sim::Time last_valid_frame_at_ = sim::Time::zero();
  sim::Time reset_until_ = sim::Time::zero();
  sim::Time observe_at_ = sim::Time::zero();  ///< timestamp of the observe in flight

  // Frame-level lazy-sync state (see FrameFeed).
  const FrameFeed* feed_ = nullptr;
  BusListener* listener_ = nullptr;
  int chain_pos_ = -1;
  std::uint64_t feed_words_seen_ = 0;
  std::uint64_t feed_valid_seen_ = 0;
  std::uint64_t feed_select_seen_ = 0;
  bool last_pending_ = false;  ///< last value reported to the listener

  sim::Signal<std::uint8_t> on_inbox_byte_;
  Stats stats_;
};

}  // namespace tb::wire
