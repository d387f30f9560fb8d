// Hierarchical timing wheel (DESIGN.md §12).
//
// Lease expiry must scale to millions of outstanding leases, which rules
// out one kernel event per lease (the pre-ISSUE-7 scheme): the event heap
// would carry the whole lease population. The wheel stores timers in
// 64-slot levels — slot width 64^L ns at level L — so arm() and cancel()
// are O(1) pointer splices plus a bitmap bit, independent of how many
// timers are outstanding. Eleven levels of 6 bits cover every non-negative
// int64 nanosecond deadline.
//
// A timer lives at the highest level where its deadline differs from the
// wheel's current time; advancing the wheel cascades timers toward level 0
// lazily, so a timer is touched at most kLevels times over its life
// (amortized O(1)). next_deadline() returns a *conservative* bound — the
// base time of the earliest occupied slot, never later than the true
// earliest deadline. Callers re-arm their wakeup after every advance();
// a spurious wakeup just cascades the slot one level down and tightens
// the bound, so timers still fire at their exact nanosecond.
//
// Single-threaded by design, like everything on the sim kernel: the
// deterministic engine drives one wheel from the event loop, and each
// ThreadedSpaceEngine shard worker owns a private wheel keyed in
// steady-clock ns. advance() is not re-entrant; fire callbacks may call
// arm()/cancel() but not advance().
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/assert.hpp"

namespace tb::sim {

class TimerWheel {
 public:
  /// Opaque timer handle; 0 is null. Generation-tagged like the event
  /// pool's handles, so a stale id (fired or cancelled timer whose slot
  /// was reused) never cancels a newer timer.
  using TimerId = std::uint64_t;

  TimerWheel() {
    for (auto& level : heads_) level.fill(kNil);
  }

  /// Arms a timer at absolute `deadline_ns` (>= 0) carrying `payload`.
  /// Deadlines at or before the current wheel time fire on the next
  /// advance(). O(1).
  TimerId arm(std::int64_t deadline_ns, std::uint64_t payload) {
    TB_REQUIRE(deadline_ns >= 0);
    const std::int32_t idx = alloc_node();
    Node& node = nodes_[static_cast<std::size_t>(idx)];
    node.deadline = deadline_ns;
    node.payload = payload;
    node.seq = next_seq_++;
    link(idx, std::max(deadline_ns, cur_));
    ++armed_;
    return make_id(idx);
  }

  /// Cancels a timer. Safe on null, stale, fired, or already-cancelled
  /// ids; returns true iff the timer was armed and is now cancelled. O(1).
  bool cancel(TimerId id) {
    const std::int32_t idx = index_of(id);
    if (idx < 0) return false;
    Node& node = nodes_[static_cast<std::size_t>(idx)];
    if (node.gen != gen_of(id) || node.bucket < 0) return false;
    unlink(idx);
    free_node(idx);
    --armed_;
    return true;
  }

  /// The deadline an armed timer fires at; nullopt for a null, stale,
  /// fired or cancelled id. O(1).
  std::optional<std::int64_t> deadline_of(TimerId id) const {
    const std::int32_t idx = index_of(id);
    if (idx < 0) return std::nullopt;
    const Node& node = nodes_[static_cast<std::size_t>(idx)];
    if (node.gen != gen_of(id) || node.bucket < 0) return std::nullopt;
    return node.deadline;
  }

  /// Advances the wheel to `now_ns`, invoking `fire(payload, deadline)`
  /// for every timer with deadline <= now_ns, in (deadline, arm-order)
  /// order. Timers crossed but not yet due cascade to finer levels.
  template <typename Fn>
  void advance(std::int64_t now_ns, Fn&& fire) {
    if (now_ns < cur_) return;
    collect_crossed(now_ns);
    cur_ = now_ns;
    due_.clear();
    for (const std::int32_t idx : todo_) {
      Node& node = nodes_[static_cast<std::size_t>(idx)];
      if (node.deadline <= now_ns) {
        due_.push_back({node.deadline, node.seq, node.payload});
        free_node(idx);
        --armed_;
      } else {
        link(idx, node.deadline);  // cascade toward level 0
      }
    }
    todo_.clear();
    std::sort(due_.begin(), due_.end(), [](const Due& a, const Due& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline
                                      : a.seq < b.seq;
    });
    // Nodes are already freed: fire() may re-enter arm()/cancel().
    for (const Due& d : due_) fire(d.payload, d.deadline);
    due_.clear();
  }

  /// Earliest possible deadline among armed timers (a lower bound, exact
  /// once the owning timer has cascaded to level 0), or nullopt when the
  /// wheel is empty. O(levels).
  std::optional<std::int64_t> next_deadline() const {
    std::optional<std::int64_t> best;
    for (int level = 0; level < kLevels; ++level) {
      const std::uint64_t occ = occupancy_[static_cast<std::size_t>(level)];
      if (occ == 0) continue;
      const int shift = kSlotBits * level;
      const std::uint64_t oslot =
          (static_cast<std::uint64_t>(cur_) >> shift) & kSlotMask;
      // Rotate the bitmap so the current slot is bit 0: the first set bit
      // is the earliest slot at this level in time order.
      const int dist = std::countr_zero(
          std::rotr(occ, static_cast<int>(oslot)));
      const std::uint64_t slot = (oslot + static_cast<std::uint64_t>(dist)) &
                                 kSlotMask;
      std::uint64_t high = 0;
      if (shift + kSlotBits < 64) {
        high = static_cast<std::uint64_t>(cur_) >> (shift + kSlotBits);
        if (oslot + static_cast<std::uint64_t>(dist) > kSlotMask) ++high;
      }
      const std::int64_t base = static_cast<std::int64_t>(
          (high << (shift + kSlotBits >= 64 ? 0 : shift + kSlotBits)) |
          (slot << shift));
      const std::int64_t bound = std::max(base, cur_);
      if (!best || bound < *best) best = bound;
    }
    return best;
  }

  std::size_t armed() const { return armed_; }
  std::int64_t now() const { return cur_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 64;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  // Non-negative int64 deadlines have bits 0..62; level = hibit/6 <= 10.
  static constexpr int kLevels = 11;
  static constexpr std::int32_t kNil = -1;

  struct Node {
    std::int64_t deadline = 0;
    std::uint64_t payload = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    std::int32_t prev = kNil;
    std::int32_t next = kNil;
    std::int32_t bucket = kNil;  // level * kSlots + slot; kNil = free
  };

  struct Due {
    std::int64_t deadline;
    std::uint64_t seq;
    std::uint64_t payload;
  };

  static TimerId pack(std::uint32_t gen, std::int32_t idx) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint32_t>(idx) + 1u);
  }
  TimerId make_id(std::int32_t idx) const {
    return pack(nodes_[static_cast<std::size_t>(idx)].gen, idx);
  }
  std::int32_t index_of(TimerId id) const {
    const std::uint32_t low = static_cast<std::uint32_t>(id);
    if (low == 0 || low > nodes_.size()) return kNil;
    return static_cast<std::int32_t>(low - 1);
  }
  static std::uint32_t gen_of(TimerId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  std::int32_t alloc_node() {
    if (free_head_ != kNil) {
      const std::int32_t idx = free_head_;
      free_head_ = nodes_[static_cast<std::size_t>(idx)].next;
      return idx;
    }
    nodes_.emplace_back();
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }

  void free_node(std::int32_t idx) {
    Node& node = nodes_[static_cast<std::size_t>(idx)];
    ++node.gen;  // invalidate outstanding ids
    node.bucket = kNil;
    node.next = free_head_;
    free_head_ = idx;
  }

  /// Places node `idx` (placement time `at`, >= cur_) into the highest
  /// level where `at` differs from cur_, and pushes it onto that slot's
  /// intrusive list.
  void link(std::int32_t idx, std::int64_t at) {
    const std::uint64_t diff =
        static_cast<std::uint64_t>(at) ^ static_cast<std::uint64_t>(cur_);
    const int level =
        diff == 0 ? 0 : (std::bit_width(diff) - 1) / kSlotBits;
    const std::uint64_t slot =
        (static_cast<std::uint64_t>(at) >> (kSlotBits * level)) & kSlotMask;
    const std::int32_t bucket =
        static_cast<std::int32_t>(level) * kSlots +
        static_cast<std::int32_t>(slot);
    Node& node = nodes_[static_cast<std::size_t>(idx)];
    std::int32_t& head =
        heads_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    node.bucket = bucket;
    node.prev = kNil;
    node.next = head;
    if (head != kNil) nodes_[static_cast<std::size_t>(head)].prev = idx;
    head = idx;
    occupancy_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << slot;
  }

  void unlink(std::int32_t idx) {
    Node& node = nodes_[static_cast<std::size_t>(idx)];
    const int level = node.bucket / kSlots;
    const int slot = node.bucket % kSlots;
    std::int32_t& head =
        heads_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    if (node.prev != kNil) {
      nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
    } else {
      head = node.next;
    }
    if (node.next != kNil) {
      nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
    }
    if (head == kNil) {
      occupancy_[static_cast<std::size_t>(level)] &=
          ~(std::uint64_t{1} << slot);
    }
    node.prev = node.next = kNil;
  }

  /// Detaches every slot the move cur_ -> now crosses (a small
  /// over-approximation: the current and landing slots are always
  /// included, which at worst cascades a not-yet-due timer one level)
  /// into todo_.
  void collect_crossed(std::int64_t now_ns) {
    const std::uint64_t elapsed =
        static_cast<std::uint64_t>(now_ns - cur_);
    for (int level = 0; level < kLevels; ++level) {
      std::uint64_t occ = occupancy_[static_cast<std::size_t>(level)];
      if (occ == 0) continue;
      const int shift = kSlotBits * level;
      const std::uint64_t eslots = shift >= 64 ? 0 : elapsed >> shift;
      std::uint64_t crossed;
      if (eslots + 2 >= kSlots) {
        crossed = ~std::uint64_t{0};
      } else {
        const std::uint64_t oslot =
            (static_cast<std::uint64_t>(cur_) >> shift) & kSlotMask;
        crossed = std::rotl((std::uint64_t{1} << (eslots + 2)) - 1,
                            static_cast<int>(oslot));
      }
      occ &= crossed;
      while (occ != 0) {
        const int slot = std::countr_zero(occ);
        occ &= occ - 1;
        std::int32_t& head = heads_[static_cast<std::size_t>(level)]
                                   [static_cast<std::size_t>(slot)];
        for (std::int32_t idx = head; idx != kNil;) {
          todo_.push_back(idx);
          idx = nodes_[static_cast<std::size_t>(idx)].next;
        }
        head = kNil;
        occupancy_[static_cast<std::size_t>(level)] &=
            ~(std::uint64_t{1} << slot);
      }
    }
  }

  std::vector<Node> nodes_;
  std::int32_t free_head_ = kNil;
  std::array<std::array<std::int32_t, kSlots>, kLevels> heads_{};
  std::array<std::uint64_t, kLevels> occupancy_{};
  std::vector<std::int32_t> todo_;
  std::vector<Due> due_;
  std::int64_t cur_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t armed_ = 0;
};

}  // namespace tb::sim
