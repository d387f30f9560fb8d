// One shard of a tuplespace store — the sequential, clock-agnostic core
// both runtimes share (DESIGN.md §10). SpaceEngine wraps it in a sim clock,
// one engine-level timer wheel and event-delivered callbacks; the
// ThreadedSpaceEngine wraps it in an inbox ring, an ownership word, tickets
// and a per-shard wheel. Everything the JavaSpaces rules need lives here
// exactly once:
//
//  * the id-ordered entry map (ids are write timestamps: the total order),
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
// The type index is a chain per (name, arity) type threaded through the map
// nodes themselves: each Entry links its id-ordered neighbours of the same
// type, and the index maps a type key to the chain's head and tail. A fresh
// write appends at the tail in O(1), because ids are monotonic; the older
// ids that commit publication and abort restoration store are linked in id
// order by walking from the nearer end. Erase unlinks in O(1), and a named
// scan follows the links with no map lookup per step. There is no id set
// per type: its 48 B node per entry would be a second copy of the id the
// map node already holds. Heap per stored (name, int, int) entry, 64-bit
// glibc (test_space's ShardStoreMemory.HeapPerIndexedEntry gates it); the
// field vector holds two Values, 40 B each as a std::variant and 16 B each
// as the tagged union of value.hpp:
//
//                        map node   field vector   index   measured
//   per-type id set         144 B        96 B       48 B    289.8 B
//   per-type chain          144 B        96 B        0 B    241.2 B
//   chain, 16 B Values      144 B        48 B        0 B    193.2 B
//   chain, 80 B Entry       128 B        48 B        0 B    177.2 B
//
// The map node stays a 128 B chunk only while sizeof(Entry) <= 80 (below).
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

#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <map>
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

struct Entry;
/// A shard's entries by id, oldest first.
using EntryMap = std::map<std::uint64_t, Entry>;

struct Entry {
  Tuple tuple;
  /// Lease timer on the owning shard's wheel, which alone holds the
  /// deadline; 0 = none (the entry never expires).
  sim::TimerWheel::TimerId timer = 0;
  /// The id-ordered neighbours of the same type key in this shard's type
  /// chain; the map's end() = none (always, when the index is off).
  EntryMap::iterator prev_of_type, next_of_type;
};
// A map node is a 32 B tree header + the 8 B id + Entry. At <= 80 B it stays
// in glibc's 128 B chunk; one word more lands in the 144 B chunk (+9% heap
// per entry on a large store). This is why Entry caches neither its byte
// size nor its deadline nor its type key: erase recomputes the size in
// O(arity), the wheel timer holds the deadline, and unlink re-hashes the
// type only at a chain end.
static_assert(sizeof(Entry) <= 80, "Entry outgrew its malloc size class");

/// The entry half of a shard: map, index, stored_bytes, lease timers.
class ShardEntries {
 public:
  using Map = EntryMap;

  /// A located entry; shard < 0 = none.
  struct Hit {
    int shard = -1;
    Map::iterator it;
    explicit operator bool() const { return shard >= 0; }
  };

  /// `use_type_index` off is the linear-scan ablation (bench_space_ops).
  /// `wheel` holds this shard's lease timers; it must outlive the shard.
  ShardEntries(bool use_type_index, sim::TimerWheel& wheel)
      : wheel_(&wheel), use_type_index_(use_type_index) {}
  // Chain links and chain ends name entries_.end(), which does not survive
  // a copy or a move of the map. std::vector<Shard> needs a move
  // constructor, but the engines reserve their shards, so it only ever
  // runs on an empty shard and asserts that it does.
  ShardEntries(ShardEntries&& other) noexcept;
  ShardEntries(const ShardEntries&) = delete;
  ShardEntries& operator=(const ShardEntries&) = delete;
  ShardEntries& operator=(ShardEntries&&) = delete;

  std::size_t size() const { return entries_.size(); }
  std::size_t stored_bytes() const { return stored_bytes_; }

  /// Stores `tuple` (type key `key`) under `id`, arming a lease timer with
  /// payload `id` when the deadline is finite.
  void store(std::uint64_t id, std::uint64_t key, Tuple&& tuple,
             std::int64_t deadline);
  /// Removes the entry and cancels its timer; returns the tuple.
  Tuple erase(Map::iterator it);
  /// Moves the entry's deadline, re-arming its timer.
  void rearm(Map::iterator it, std::int64_t deadline);
  /// The entry's lease deadline: kNoDeadline without a timer, kAllVisible
  /// once its timer has fired (expiry due, entry not yet reclaimed).
  std::int64_t deadline(const Entry& entry) const;
  /// The entry with exactly this id, visible or not; end() when absent.
  Map::iterator find(std::uint64_t id) { return entries_.find(id); }
  Map::iterator end() { return entries_.end(); }

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

  /// One type's entries, oldest first, threaded through Entry's links;
  /// end() = none. Walking it visits the type's entries and nothing else,
  /// with no lookup per step.
  struct Chain {
    Map::iterator head, tail;
  };

  /// Links a stored entry of type key `key` into its chain in id order.
  void link(Map::iterator it, std::uint64_t key);
  /// Unlinks an entry about to be erased from its type's chain.
  void unlink(Map::iterator it);
  /// Whether `entry` is hidden when matching at `now`: never under
  /// kAllVisible, else once its deadline is <= now.
  bool expired(const Entry& entry, std::int64_t now) const {
    return now != kAllVisible && deadline(entry) <= now;
  }

  Map entries_;
  /// type key -> chain, maintained when use_type_index_. Emptied chains are
  /// retained: a hot (write, take, write, ...) shape would otherwise churn a
  /// node per cycle, and an empty chain is indistinguishable from an absent
  /// one to every lookup.
  std::unordered_map<std::uint64_t, Chain> index_;
  std::size_t stored_bytes_ = 0;
  sim::TimerWheel* wheel_;
  bool use_type_index_;
};

/// Walks, oldest first, the entries of `shards` visible at `now` that a
/// template matches: a named template reads one shard (its type chain, or
/// every entry when the index is off), a wildcard template the
/// id-ordered merge of all shards. The caller may erase the entry next()
/// returned before calling next() again.
class Scan {
 public:
  /// Every visible entry, merged across shards (snapshots); counts nothing.
  Scan(std::span<ShardEntries* const> shards, std::int64_t now);
  /// Entries matching `tmpl`; each one inspected adds 1 to *scan_steps.
  Scan(std::span<ShardEntries* const> shards, const Template& tmpl,
       std::int64_t now, std::uint64_t* scan_steps);

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
  int shard_ = 0;                  ///< kIndexed / kLinear: the routed shard
  ShardEntries::Map::iterator it_;  ///< kIndexed / kLinear: the next entry
  std::vector<ShardEntries::Map::iterator> cursor_;  ///< kMerge, per shard
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
