// Slab-allocated event storage and the two-tier pending-event queue —
// the data structures behind Simulator's hot path (DESIGN.md §8).
//
// An event id packs the kernel's monotonic scheduling sequence number with
// the pool slot index: id = (seq << 24) | slot. The seq doubles as the
// slot's generation tag — a recycled slot holds a different (newer) seq, so
// a stale handle mismatches in one compare — and as the deterministic
// same-instant tie-break, so the queue orders entries by (time, id) alone.
//
// EventPool keeps every live callback in a fixed-address slot inside
// chunked slabs: allocation is a freelist pop, release is a freelist push,
// and cancel/is_pending cost one array probe (no hashing).
//
// EventQueue is the classic discrete-event split queue: entries beyond a
// boundary time sit in an unsorted "far" vector (push = append), and only
// a small "near" tier of 16-byte entries is kept ordered. When near
// drains, a refill partitions the smallest chunk of far across a sampled
// quantile pivot and sorts it into a run consumed by a cursor; entries
// that land below the boundary afterwards go into a small 4-ary overlay
// heap. A binary heap over all 100k pending events of a Table 4 soak
// costs a dependent cache-miss chain per pop; here the common pop is a
// cursor bump over a sequentially prefetched array and refills are linear
// scans. Deletion is lazy: cancelled events are dropped when the queue
// head surfaces them (checked against the pool's id probe).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "src/sim/time.hpp"
#include "src/util/assert.hpp"
#include "src/util/inplace_function.hpp"

namespace tb::sim::detail {

/// Inline capacity for event callbacks. 48 bytes covers every capture the
/// models make today (a delay resume is two pointers; the fattest
/// wire-layer lambdas capture four); bigger captures heap-allocate inside
/// the slot, never grow it.
using EventFn = util::InplaceFunction<void(), 48>;

class EventPool {
 public:
  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  ~EventPool() {
    // Only slots [0, slot_count_) were ever constructed (growth is
    // sequential); anything beyond is raw chunk memory.
    for (std::size_t i = 0; i < slot_count_; ++i) {
      slot(static_cast<std::uint32_t>(i)).~Slot();
    }
  }

  /// 24 slot-index bits = 16.7M simultaneously pending events; 40 seq bits
  /// = 1.1e12 events per run. Both are orders of magnitude past the
  /// largest soak; TB_ASSERTed in acquire().
  static constexpr std::uint64_t kIndexBits = 24;
  static constexpr std::uint64_t kIndexMask = (1u << kIndexBits) - 1;

  static constexpr std::uint64_t pack(std::uint64_t seq, std::uint32_t index) {
    return (seq << kIndexBits) | index;
  }
  static constexpr std::uint32_t index_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & kIndexMask);
  }

  /// Claims a slot for `fn` under sequence number `seq` (> 0, monotonic per
  /// simulator); returns the packed event id. A valid id is never 0.
  std::uint64_t acquire(EventFn fn, std::uint64_t seq) {
    TB_ASSERT(seq > 0 && seq < (std::uint64_t{1} << (64 - kIndexBits)));
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slot_count_);
      TB_ASSERT(index <= kIndexMask);
      if (index >> kChunkShift == chunks_.size()) {
        // Raw storage: slots are placement-constructed one at a time as
        // the pool grows, so a short-lived Simulator (a sweep runs
        // thousands) never pays for initializing a whole chunk.
        chunks_.push_back(
            std::make_unique<std::byte[]>(kChunkSize * sizeof(Slot)));
      }
      ::new (&slot(index)) Slot();
      ++slot_count_;
    }
    Slot& s = slot(index);
    const std::uint64_t id = pack(seq, index);
    s.fn = std::move(fn);
    s.id = id;
    ++live_;
    return id;
  }

  /// True iff `id` names a currently live event.
  bool is_live(std::uint64_t id) const {
    const std::uint32_t index = index_of(id);
    return index < slot_count_ && slot(index).id == id;
  }

  /// Releases a live slot, returning its callback. TB_ASSERTs liveness —
  /// callers check is_live first (the kernel always does).
  EventFn release(std::uint64_t id) {
    TB_ASSERT(is_live(id));
    const std::uint32_t index = index_of(id);
    Slot& s = slot(index);
    EventFn fn = std::move(s.fn);
    s.fn.reset();
    s.id = 0;
    --live_;
    free_.push_back(index);
    return fn;
  }

  std::size_t live() const { return live_; }

 private:
  // 1024 slots x 64 bytes = 64 KiB chunks: large enough that a soak-sized
  // queue touches ~a hundred allocations, small enough to come from the
  // allocator's arena (not mmap) for the thousands of short-lived
  // Simulators a parameter sweep creates.
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  struct Slot {
    EventFn fn;            ///< engaged iff the slot is live
    std::uint64_t id = 0;  ///< packed id of the occupant; 0 = free
  };
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  Slot& slot(std::uint32_t index) {
    return reinterpret_cast<Slot*>(
        chunks_[index >> kChunkShift].get())[index & (kChunkSize - 1)];
  }
  const Slot& slot(std::uint32_t index) const {
    return reinterpret_cast<const Slot*>(
        chunks_[index >> kChunkShift].get())[index & (kChunkSize - 1)];
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t slot_count_ = 0;
  std::size_t live_ = 0;
};

/// A pending event: 16 bytes, so a 4-ary sibling group is one cache line.
/// Because an id's high bits are the scheduling seq, (time, id) order is
/// exactly the kernel's deterministic (time, seq) order.
struct Entry {
  Time at;
  std::uint64_t id;  ///< EventPool packed id; high bits = seq tie-break

  bool before(const Entry& o) const {
    if (at != o.at) return at < o.at;
    return id < o.id;
  }
};
static_assert(sizeof(Entry) == 16);

/// Min-heap of entries with 4-way fan-out: half the tree depth of a binary
/// heap, and a 4-entry sibling group is exactly one cache line. Used for
/// the overlay tier, which stays small enough to be cache-hot.
class EventHeap {
 public:
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  const Entry& top() const {
    TB_ASSERT(!entries_.empty());
    return entries_.front();
  }

  void push(Entry entry) {
    entries_.push_back(entry);
    sift_up(entries_.size() - 1);
  }

  void pop() {
    TB_ASSERT(!entries_.empty());
    entries_.front() = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) sift_down(0);
  }

 private:
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const Entry entry = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!entry.before(entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = entry;
  }

  void sift_down(std::size_t i) {
    const Entry entry = entries_[i];
    const std::size_t n = entries_.size();
    while (true) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + kArity, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (entries_[c].before(entries_[best])) best = c;
      }
      if (!entries_[best].before(entry)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = entry;
  }

  std::vector<Entry> entries_;
};

/// The two-tier pending queue. Invariant: every near-tier entry sorts
/// strictly before every far entry, so the global minimum is always at the
/// near tier's head. The near tier is a sorted run consumed front-to-back
/// by a cursor — the common pop is one index bump on a sequentially
/// prefetched array, not a heap sift — plus a small overlay heap that
/// absorbs entries scheduled below the boundary *after* the run was sorted
/// (zero-delay completions, short relative delays). The live minimum is
/// whichever of run-head and overlay-top sorts first.
class EventQueue {
 public:
  bool empty() const { return near_empty() && far_.empty(); }
  std::size_t size() const {
    return (sorted_.size() - cursor_) + overlay_.size() + far_.size();
  }

  void push(Entry entry) {
    // Entries below the boundary must enter the ordered tier or the pop
    // path would miss them; everything else is an O(1) append. Before the
    // first refill there is no boundary and everything goes far.
    if (has_boundary_ && entry.before(boundary_)) {
      overlay_.push(entry);
    } else {
      far_.push_back(entry);
    }
  }

  /// Current minimum entry, refilling the near tier as needed; nullptr when
  /// the queue is empty. The returned pointer is invalidated by push/pop.
  const Entry* peek() {
    while (near_empty()) {
      if (far_.empty()) return nullptr;
      refill();
    }
    if (run_is_min()) return &sorted_[cursor_];
    return &overlay_.top();
  }

  /// Removes the entry peek() returned. Call peek() first.
  void pop() {
    if (run_is_min()) {
      ++cursor_;
    } else {
      overlay_.pop();
    }
  }

 private:
  bool near_empty() const {
    return cursor_ == sorted_.size() && overlay_.empty();
  }

  /// True when the sorted run's head is the near tier's minimum. Only
  /// meaningful when !near_empty().
  bool run_is_min() const {
    return cursor_ < sorted_.size() &&
           (overlay_.empty() || sorted_[cursor_].before(overlay_.top()));
  }

  // Refills move roughly max(kMinChunk, |far|/8) entries: large enough to
  // amortize the far scan (total rescan work stays near-linear while the
  // queue drains), small enough that the near heap stays cache-resident.
  static constexpr std::size_t kMinChunk = 8'192;
  static constexpr std::size_t kSamples = 33;
  static constexpr std::size_t kSmallRefill = 32;

  /// Partitions the smallest chunk of far into near. The scan is a pure
  /// sequential 16-byte-entry pass — cancelled entries move along with
  /// live ones and are discarded when they surface at near's top, because
  /// probing the pool per scanned entry would turn the scan into random
  /// slot loads. The pivot is an element of far, so every call moves at
  /// least one entry and the peek() loop terminates.
  void refill() {
    TB_ASSERT(near_empty() && !far_.empty());
    cursor_ = 0;
    if (far_.size() <= kSmallRefill) {
      // Tiny queue (ping-pong protocols keep one or two events pending):
      // skip the pivot machinery entirely — swap far in as the new run and
      // insertion-sort it. For the common single-entry case this is a swap
      // and one store; a full refill here would cost more than the pop.
      sorted_.clear();
      sorted_.swap(far_);
      for (std::size_t i = 1; i < sorted_.size(); ++i) {
        const Entry e = sorted_[i];
        std::size_t j = i;
        for (; j > 0 && e.before(sorted_[j - 1]); --j) {
          sorted_[j] = sorted_[j - 1];
        }
        sorted_[j] = e;
      }
    } else {
      const Entry pivot = pick_pivot();
      sorted_.clear();
      std::size_t write = 0;
      for (std::size_t read = 0; read < far_.size(); ++read) {
        const Entry e = far_[read];
        if (!pivot.before(e)) {
          sorted_.push_back(e);  // e <= pivot: the pivot itself always moves
        } else {
          far_[write++] = e;
        }
      }
      far_.resize(write);
      // Models overwhelmingly schedule in near-ascending time order, so
      // the chunk often arrives already sorted; the is_sorted pre-pass is
      // one predictable sequential scan that skips the sort entirely.
      const auto less = [](const Entry& a, const Entry& b) {
        return a.before(b);
      };
      if (!std::is_sorted(sorted_.begin(), sorted_.end(), less)) {
        std::sort(sorted_.begin(), sorted_.end(), less);
      }
    }
    // The tightest valid boundary is the run's own maximum (anything moved
    // is <= it, anything left in far is > it); pushes that land between
    // run entries go to the overlay, later ones append to far.
    boundary_ = sorted_.back();
    has_boundary_ = true;
  }

  /// Deterministic quantile estimate: spread samples across far (its order
  /// is the push order, so this is reproducible), then pick the sample
  /// whose rank targets the desired chunk size.
  Entry pick_pivot() const {
    if (far_.size() <= 2 * kMinChunk) {
      // Small spill: move everything in one pass instead of trickling.
      return *std::max_element(
          far_.begin(), far_.end(),
          [](const Entry& a, const Entry& b) { return a.before(b); });
    }
    Entry samples[kSamples];
    const std::size_t stride = far_.size() / kSamples;
    for (std::size_t i = 0; i < kSamples; ++i) {
      samples[i] = far_[i * stride];
    }
    std::sort(samples, samples + kSamples,
              [](const Entry& a, const Entry& b) { return a.before(b); });
    const double fraction =
        std::max(static_cast<double>(kMinChunk) /
                     static_cast<double>(far_.size()),
                 1.0 / 8.0);
    const auto rank = static_cast<std::size_t>(
        std::min<double>(kSamples - 1, fraction * kSamples + 1.0));
    return samples[rank];
  }

  std::vector<Entry> sorted_;  ///< current near-tier run, ordered by before()
  std::size_t cursor_ = 0;     ///< first unconsumed entry of sorted_
  EventHeap overlay_;          ///< near-tier entries pushed after the sort
  std::vector<Entry> far_;
  Entry boundary_{};           ///< min(far) > boundary >= max(near tier)
  bool has_boundary_ = false;  ///< false until the first refill
};

}  // namespace tb::sim::detail
