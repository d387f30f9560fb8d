// One shard of a tuplespace store — the sequential, clock-agnostic core
// both runtimes share (DESIGN.md §10). SpaceEngine wraps it in a sim clock,
// one engine-level timer wheel and event-delivered callbacks; the
// ThreadedSpaceEngine wraps it in an inbox ring, an ownership word, tickets
// and a per-shard wheel. Everything the JavaSpaces rules need lives here
// exactly once:
//
//  * the id-ordered entry slab (ids are write timestamps: the total order),
//    the (name, arity) type index and stored_bytes;
//  * Scan — the named match (type chain, or a linear scan when the index
//    is off) and the one id-ordered k-way merge across shards that
//    wildcard matches, bulk matches and snapshots use;
//  * find_live — the one entry-by-id lookup;
//  * ShardStore::publish — serve-then-store: blocked operations are served
//    in registration order across the shard's FIFO queue and the
//    cross-shard wildcard queue, and the tuple is stored unless a blocked
//    take consumed it.
//
// The slab is a list of fixed-size chunks of kChunkSlots slots, kept in id
// order: slots ascend by id within a chunk, and each chunk's ids all lie
// below the next chunk's. A slot holds the 8 B id and the Entry. A fresh
// write appends to the last chunk in O(1), because ids are monotonic. The
// older ids that commit publication and abort restoration store are placed
// in order inside their chunk (a full chunk first squeezes out its
// tombstones, or splits in two): O(kChunkSlots), not O(shard size).
// Erasing leaves a tombstone that keeps its id, so a chunk stays searchable;
// a chunk is freed when its last live slot goes. Directed lookups
// (find, find_live) binary-search the chunks' first ids, then the chunk.
// When the last chunk is full and the shard's slots outnumber its live
// entries by more than 1/8, store() packs the live slots into the fewest
// chunks before it allocates another. Chunks are allocated one at a time
// and never copied; a shard allocates nothing before its first store.
//
// A slot handle (SlotRef) is the chunk's number times kChunkSlots plus the
// slot's index. It names the slot until the entry is erased or store()
// moves it: store() may move any slot, so it must not run while a Scan is
// live (asserted), and a Hit must not be kept across a store. Erase moves
// nothing, so a Scan survives the erase of the entry it just returned.
// Under ASan a tombstone's entry bytes and a chunk's unused slots are
// poisoned, so a read through a stale handle is reported.
//
// The type index is a chain per (name, arity) type threaded through the
// slots: each Entry links its id-ordered neighbours of the same type by
// SlotRef, and the index maps a type key to the chain's head and tail. A
// fresh write appends at the tail in O(1); an older id is linked in id
// order by walking from the nearer end. Erase unlinks in O(1), and a named
// scan follows the links with no lookup per step. Moving a slot fixes only
// its own neighbours' links. Heap per stored (name, int, int) entry, 64-bit
// glibc (test_space's ShardStoreMemory.HeapPerIndexedEntry gates it); the
// field vector holds two Values, 40 B each as a std::variant and 16 B each
// as the tagged union of value.hpp:
//
//                        entry node   field vector   index   measured
//   per-type id set         144 B        96 B       48 B    289.8 B
//   per-type chain          144 B        96 B        0 B    241.2 B
//   chain, 16 B Values      144 B        48 B        0 B    193.2 B
//   chain, 80 B Entry       128 B        48 B        0 B    177.2 B
//   chain, slab              80 B        48 B        0 B    130.0 B
//
// The first four rows are std::map nodes (a 32 B tree header, the id and
// the Entry in one malloc chunk); the last is an 80 B slot in a 5 KiB chunk.
//
// Deadlines are plain int64 ns on whatever clock the owning engine runs;
// timer ids are the engine's wheel handles (payload = entry id). An entry
// keeps its lease deadline only in its wheel timer (ShardEntries::deadline).
// Each engine keeps its own visibility rule by choosing the `now` it
// matches with: the deterministic engine passes its sim clock, so an entry
// whose deadline has passed is hidden before its wheel event runs; the
// threaded engine passes kAllVisible, so an entry is visible until it is
// reclaimed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/timer_wheel.hpp"
#include "src/space/tuple.hpp"

namespace tb::space {

/// Entry deadline meaning "never expires" (= sim::Time::max() in ns).
inline constexpr std::int64_t kNoDeadline =
    std::numeric_limits<std::int64_t>::max();

/// Matching clock under which no stored entry is hidden.
inline constexpr std::int64_t kAllVisible =
    std::numeric_limits<std::int64_t>::min();

/// Which shard a (name, arity) type key routes to.
inline int shard_route(std::uint64_t key, std::size_t shard_count) {
  return shard_count == 1 ? 0 : static_cast<int>(key % shard_count);
}

/// A slot handle: chunk number * ShardEntries::kChunkSlots + slot index.
using SlotRef = std::uint32_t;
inline constexpr SlotRef kNoSlot = std::numeric_limits<SlotRef>::max();

struct Entry {
  Tuple tuple;
  /// Lease timer on the owning shard's wheel, which alone holds the
  /// deadline; 0 = none (the entry never expires).
  sim::TimerWheel::TimerId timer = 0;
  /// The id-ordered neighbours of the same type key in this shard's type
  /// chain; kNoSlot = none (always, when the index is off).
  SlotRef prev_of_type = kNoSlot, next_of_type = kNoSlot;
};

/// One slab slot: the entry's id and, while the slot is live, the entry. A
/// tombstone keeps its id; its entry is destroyed (and poisoned under ASan).
struct Slot {
  std::uint64_t id;
  union {
    Entry entry;
  };
  Slot() {}   // NOLINT: the entry is constructed only when the slot fills
  ~Slot() {}  // NOLINT: ShardEntries destroys live entries itself
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
};
// Entry caches neither its byte size nor its deadline nor its type key:
// erase recomputes the size in O(arity), the wheel timer holds the
// deadline, and unlink re-hashes the type only at a chain end. Each word
// more would cost 8 B per stored entry.
static_assert(sizeof(Slot) <= 80, "a slab slot outgrew id + 72 B Entry");

/// The entry half of a shard: slab, index, stored_bytes, lease timers.
class ShardEntries {
 public:
  /// Slots per chunk: one live bit each in Chunk::live.
  static constexpr SlotRef kChunkSlots = 64;

  /// A located entry; shard < 0 = none. `slot` is `ref`'s slot.
  struct Hit {
    int shard = -1;
    SlotRef ref = kNoSlot;
    Slot* slot = nullptr;
    explicit operator bool() const { return shard >= 0; }
  };

  /// `use_type_index` off is the linear-scan ablation (bench_space_ops).
  /// `wheel` holds this shard's lease timers; it must outlive the shard.
  ShardEntries(bool use_type_index, sim::TimerWheel& wheel)
      : wheel_(&wheel), use_type_index_(use_type_index) {}
  ShardEntries(ShardEntries&&) noexcept = default;
  ShardEntries(const ShardEntries&) = delete;
  ShardEntries& operator=(const ShardEntries&) = delete;
  ShardEntries& operator=(ShardEntries&&) = delete;
  ~ShardEntries();

  std::size_t size() const { return size_; }
  std::size_t stored_bytes() const { return stored_bytes_; }
  /// Slots in allocated chunks: live, tombstoned and not yet filled.
  std::size_t allocated_slots() const { return order_.size() * kChunkSlots; }

  /// Stores `tuple` (type key `key`) under `id`, arming a lease timer with
  /// payload `id` when the deadline is finite. May move any slot, so no
  /// Scan of this shard may be live.
  void store(std::uint64_t id, std::uint64_t key, Tuple&& tuple,
             std::int64_t deadline);
  /// Removes the entry and cancels its timer; returns the tuple.
  Tuple erase(SlotRef ref);
  /// Moves the entry's deadline, re-arming its timer.
  void rearm(SlotRef ref, std::int64_t deadline);
  /// The entry's lease deadline: kNoDeadline without a timer, kAllVisible
  /// once its timer has fired (expiry due, entry not yet reclaimed).
  std::int64_t deadline(const Entry& entry) const;
  /// The live slot with exactly this id, visible or not; kNoSlot when
  /// absent.
  SlotRef find(std::uint64_t id) const;
  Slot& at(SlotRef ref) const {
    return chunks_[ref / kChunkSlots]->slots[ref % kChunkSlots];
  }

  /// The entry with this id across `shards` (ids do not encode their
  /// shard, so each is probed), or none when absent or hidden at `now`.
  static Hit find_live(std::span<ShardEntries* const> shards,
                       std::uint64_t id, std::int64_t now);

  /// Up to `max` entries matching `tmpl` at `now`, oldest first, copied —
  /// or removed when `take`, their ids appended to *taken_ids when given.
  /// Counts inspected entries into *scan_steps.
  static std::vector<Tuple> bulk(std::span<ShardEntries* const> shards,
                                 const Template& tmpl, std::int64_t now,
                                 std::size_t max, bool take,
                                 std::uint64_t* scan_steps,
                                 std::vector<std::uint64_t>* taken_ids =
                                     nullptr);

 private:
  friend class Scan;

  struct Chunk {
    std::uint64_t live = 0;  ///< bit i: slots[i] holds an entry
    /// slots[0, used) hold ids in ascending order, live or tombstoned.
    SlotRef used = 0;
    Slot slots[kChunkSlots];
  };
  /// A chunk's place in id order: its first slot's id (tombstone or not)
  /// and its number in chunks_.
  struct Place {
    std::uint64_t first_id;
    SlotRef number;
  };
  /// One type's entries, oldest first, threaded through Entry's links;
  /// kNoSlot = none. Walking it visits the type's entries and nothing
  /// else, with no lookup per step.
  struct Chain {
    SlotRef head = kNoSlot, tail = kNoSlot;
  };

  /// The first live slot in id order; kNoSlot when the shard is empty.
  SlotRef first_live() const;
  /// The first live slot of chunk `number` (which has one).
  SlotRef first_live_of(SlotRef number) const;
  /// The live slot after `ref` in id order; kNoSlot at the end.
  SlotRef next_live(SlotRef ref) const;
  /// Index in order_ of the last chunk whose first id is <= id; 0 when
  /// there is none.
  std::size_t chunk_of(std::uint64_t id) const;
  /// The first of the chunk's filled slots whose id is >= id (`used` when
  /// none is).
  static SlotRef index_of(const Chunk& chunk, std::uint64_t id);
  /// An empty slot at id's place in the slab, with `id` written into it.
  SlotRef make_room(std::uint64_t id);
  /// Opens slot `at` of the chunk at order_[pos] (which has a free slot)
  /// by shifting the slots from `at` up one.
  SlotRef open_slot(std::size_t pos, SlotRef at);
  /// Moves the upper half of the full, tombstone-free chunk at order_[pos]
  /// into a new chunk after it.
  void split(std::size_t pos);
  /// Packs the live slots of the chunks at order_[first, end) into the
  /// fewest of them, in id order, and frees the rest.
  void pack(std::size_t first, std::size_t end);
  /// A new chunk's number, its unused slots poisoned.
  SlotRef new_chunk();
  /// Frees the chunk at order_[pos], which holds no live slot.
  void free_chunk(std::size_t pos);
  /// Moves a live slot, fixing its chain neighbours' links (or the chain's
  /// ends) to name its new place.
  void move_slot(SlotRef from, SlotRef to);
  /// Links a stored entry of type key `key` into its chain in id order.
  void link(SlotRef ref, std::uint64_t key);
  /// Unlinks an entry about to be erased from its type's chain.
  void unlink(SlotRef ref);
  /// The chain of the entry's type (which must have one).
  Chain& chain_of(const Entry& entry);
  /// Whether `entry` is hidden when matching at `now`: never under
  /// kAllVisible, else once its deadline is <= now.
  bool expired(const Entry& entry, std::int64_t now) const {
    return now != kAllVisible && deadline(entry) <= now;
  }

  /// Chunks by number; a freed chunk's number waits in free_numbers_.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<SlotRef> free_numbers_;
  /// Every allocated chunk, in id order.
  std::vector<Place> order_;
  /// type key -> chain, maintained when use_type_index_. Emptied chains are
  /// retained: a hot (write, take, write, ...) shape would otherwise churn a
  /// node per cycle, and an empty chain is indistinguishable from an absent
  /// one to every lookup.
  std::unordered_map<std::uint64_t, Chain> index_;
  std::size_t size_ = 0;
  std::size_t stored_bytes_ = 0;
  /// Live Scans over this shard: store() asserts there are none.
  int cursors_ = 0;
  sim::TimerWheel* wheel_;
  bool use_type_index_;
};

/// Walks, oldest first, the entries of `shards` visible at `now` that a
/// template matches: a named template reads one shard (its type chain, or
/// every entry when the index is off), a wildcard template the
/// id-ordered merge of all shards. The caller may erase the entry next()
/// returned before calling next() again; nothing may store into a shard
/// the Scan reads while it lives.
class Scan {
 public:
  /// Every visible entry, merged across shards (snapshots); counts nothing.
  Scan(std::span<ShardEntries* const> shards, std::int64_t now);
  /// Entries matching `tmpl`; each one inspected adds 1 to *scan_steps.
  Scan(std::span<ShardEntries* const> shards, const Template& tmpl,
       std::int64_t now, std::uint64_t* scan_steps);
  ~Scan();
  Scan(const Scan&) = delete;
  Scan& operator=(const Scan&) = delete;

  /// The next match; an empty Hit when exhausted.
  ShardEntries::Hit next();

 private:
  enum class Mode : std::uint8_t { kDone, kIndexed, kLinear, kMerge };

  ShardEntries::Hit advance();
  void start_merge();

  std::span<ShardEntries* const> shards_;
  const Template* tmpl_ = nullptr;
  std::int64_t now_;
  std::uint64_t* scan_steps_ = nullptr;
  Mode mode_ = Mode::kDone;
  int shard_ = 0;           ///< kIndexed / kLinear: the routed shard
  SlotRef at_ = kNoSlot;    ///< kIndexed / kLinear: the next live entry
  std::vector<SlotRef> cursor_;  ///< kMerge: per shard, the next live entry
};

/// A shard: its entries plus the FIFO queue of operations blocked on a
/// named template routed here. `Payload` is what the engine needs to
/// complete a blocked operation (a callback, a parked request cell).
template <class Payload>
class ShardStore : public ShardEntries {
 public:
  struct Waiter {
    std::uint64_t id = 0;  ///< registration order, shared with entry ids
    Template tmpl;
    bool take = false;
    Payload payload{};
  };
  using Waiters = std::list<Waiter>;  ///< appended = id-ordered

  using ShardEntries::ShardEntries;

  Waiters& waiters() { return waiters_; }
  const Waiters& waiters() const { return waiters_; }

  /// Serve-then-store. Visits this shard's queue and `*wildcard` (the
  /// cross-shard queue; nullptr = not visible to this publish) in
  /// registration order — both are id-ordered, so a two-pointer merge
  /// walks their union oldest first and the wakeup order is independent of
  /// shard layout. Each matching waiter is removed and handed to
  /// serve(Waiter&&, bool from_wildcard, Tuple): readers get a copy, the
  /// first take gets the tuple itself and ends the walk. Otherwise the
  /// tuple is stored. Returns true when a take consumed it.
  template <class Serve>
  bool publish(std::uint64_t id, std::uint64_t key, Tuple&& tuple,
               std::int64_t deadline, Waiters* wildcard, Serve&& serve) {
    auto named = waiters_.begin();
    // No wildcard queue: an empty range that is never dereferenced.
    auto wild = wildcard != nullptr ? wildcard->begin() : waiters_.end();
    const auto wild_end = wildcard != nullptr ? wildcard->end() : wild;
    while (named != waiters_.end() || wild != wild_end) {
      const bool pick_named =
          wild == wild_end || (named != waiters_.end() && named->id < wild->id);
      Waiters& queue = pick_named ? waiters_ : *wildcard;
      auto& pos = pick_named ? named : wild;
      if (!pos->tmpl.matches(tuple)) {
        ++pos;
        continue;
      }
      Waiter waiter = std::move(*pos);
      pos = queue.erase(pos);
      if (waiter.take) {
        serve(std::move(waiter), !pick_named, std::move(tuple));
        return true;  // consumed before reaching the store
      }
      serve(std::move(waiter), !pick_named, Tuple(tuple));
    }
    store(id, key, std::move(tuple), deadline);
    return false;
  }

 private:
  Waiters waiters_;
};

}  // namespace tb::space
