#include "src/space/shard_store.hpp"

#include <algorithm>
#include <bit>
#include <new>

#include "src/util/assert.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define TB_SLAB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TB_SLAB_ASAN 1
#endif
#endif
#if defined(TB_SLAB_ASAN)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace tb::space {
namespace {

/// Bits [0, n) set; n <= 64.
std::uint64_t low_bits(SlotRef n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

void poison_entry(Slot& slot) {
  ASAN_POISON_MEMORY_REGION(&slot.entry, sizeof(Entry));
}

void unpoison_entry(Slot& slot) {
  ASAN_UNPOISON_MEMORY_REGION(&slot.entry, sizeof(Entry));
}

/// Writes a tombstone's id into a slot that may be unused (all poisoned).
void set_id(Slot& slot, std::uint64_t id) {
  ASAN_UNPOISON_MEMORY_REGION(&slot.id, sizeof slot.id);
  slot.id = id;
}

}  // namespace

static_assert(ShardEntries::kChunkSlots == 64, "Chunk::live has 64 bits");

ShardEntries::~ShardEntries() {
  for (const Place& place : order_) {
    Chunk& chunk = *chunks_[place.number];
    for (std::uint64_t live = chunk.live; live != 0; live &= live - 1) {
      chunk.slots[std::countr_zero(live)].entry.~Entry();
    }
  }
}

// --- the slab ----------------------------------------------------------------

SlotRef ShardEntries::new_chunk() {
  SlotRef number;
  if (free_numbers_.empty()) {
    number = static_cast<SlotRef>(chunks_.size());
    chunks_.emplace_back();
  } else {
    number = free_numbers_.back();
    free_numbers_.pop_back();
  }
  // Default-initialized: only the header is written, the slots stay raw.
  chunks_[number].reset(new Chunk);
  ASAN_POISON_MEMORY_REGION(chunks_[number]->slots,
                            sizeof chunks_[number]->slots);
  return number;
}

void ShardEntries::free_chunk(std::size_t pos) {
  const SlotRef number = order_[pos].number;
  TB_ASSERT(chunks_[number]->live == 0);
  chunks_[number].reset();
  free_numbers_.push_back(number);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
}

std::size_t ShardEntries::chunk_of(std::uint64_t id) const {
  const auto place = std::upper_bound(
      order_.begin(), order_.end(), id,
      [](std::uint64_t v, const Place& p) { return v < p.first_id; });
  return place == order_.begin()
             ? 0
             : static_cast<std::size_t>(place - order_.begin()) - 1;
}

SlotRef ShardEntries::index_of(const Chunk& chunk, std::uint64_t id) {
  return static_cast<SlotRef>(
      std::lower_bound(chunk.slots, chunk.slots + chunk.used, id,
                       [](const Slot& s, std::uint64_t v) { return s.id < v; }) -
      chunk.slots);
}

SlotRef ShardEntries::find(std::uint64_t id) const {
  if (order_.empty() || id < order_.front().first_id) return kNoSlot;
  const SlotRef number = order_[chunk_of(id)].number;
  const Chunk& chunk = *chunks_[number];
  const SlotRef index = index_of(chunk, id);
  if (index == chunk.used || chunk.slots[index].id != id ||
      (chunk.live >> index & 1) == 0) {  // absent, or a tombstone
    return kNoSlot;
  }
  return number * kChunkSlots + index;
}

SlotRef ShardEntries::first_live_of(SlotRef number) const {
  return number * kChunkSlots +
         static_cast<SlotRef>(std::countr_zero(chunks_[number]->live));
}

SlotRef ShardEntries::first_live() const {
  return order_.empty() ? kNoSlot : first_live_of(order_.front().number);
}

SlotRef ShardEntries::next_live(SlotRef ref) const {
  const SlotRef number = ref / kChunkSlots;
  const Chunk& chunk = *chunks_[number];
  // The live bits above ref's index (none when it is the last slot).
  const std::uint64_t above = chunk.live & ~low_bits(ref % kChunkSlots + 1);
  if (above != 0) {
    return number * kChunkSlots +
           static_cast<SlotRef>(std::countr_zero(above));
  }
  // Every chunk in order_ holds a live slot.
  const std::size_t pos = chunk_of(chunk.slots[0].id) + 1;
  return pos == order_.size() ? kNoSlot : first_live_of(order_[pos].number);
}

void ShardEntries::move_slot(SlotRef from, SlotRef to) {
  Slot& src = at(from);
  Slot& dst = at(to);
  set_id(dst, src.id);
  unpoison_entry(dst);
  ::new (static_cast<void*>(&dst.entry)) Entry(std::move(src.entry));
  src.entry.~Entry();
  poison_entry(src);
  if (!use_type_index_) return;
  Entry& entry = dst.entry;
  if (entry.prev_of_type != kNoSlot) {
    at(entry.prev_of_type).entry.next_of_type = to;
  } else {
    chain_of(entry).head = to;
  }
  if (entry.next_of_type != kNoSlot) {
    at(entry.next_of_type).entry.prev_of_type = to;
  } else {
    chain_of(entry).tail = to;
  }
}

SlotRef ShardEntries::open_slot(std::size_t pos, SlotRef at_index) {
  const SlotRef number = order_[pos].number;
  Chunk& chunk = *chunks_[number];
  TB_ASSERT(chunk.used < kChunkSlots);
  const SlotRef base = number * kChunkSlots;
  for (SlotRef i = chunk.used; i > at_index; --i) {
    if ((chunk.live >> (i - 1) & 1) != 0) {
      move_slot(base + i - 1, base + i);
    } else {
      set_id(chunk.slots[i], chunk.slots[i - 1].id);
    }
  }
  const std::uint64_t keep = low_bits(at_index);
  chunk.live = (chunk.live & keep) | ((chunk.live & ~keep) << 1);
  ++chunk.used;
  return base + at_index;
}

void ShardEntries::split(std::size_t pos) {
  const SlotRef number = order_[pos].number;
  const SlotRef upper = new_chunk();
  Chunk& chunk = *chunks_[number];
  Chunk& half = *chunks_[upper];
  constexpr SlotRef kHalf = kChunkSlots / 2;
  for (SlotRef i = kHalf; i < kChunkSlots; ++i) {
    move_slot(number * kChunkSlots + i, upper * kChunkSlots + i - kHalf);
  }
  chunk.used = half.used = kHalf;
  chunk.live = half.live = low_bits(kHalf);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                Place{half.slots[0].id, upper});
}

void ShardEntries::pack(std::size_t first, std::size_t end) {
  // Read and write cursors walk the chunks in id order; the write cursor
  // never passes the read cursor, so every destination is free.
  std::size_t out = first;
  SlotRef filled = 0;
  for (std::size_t pos = first; pos < end; ++pos) {
    const SlotRef base = order_[pos].number * kChunkSlots;
    for (std::uint64_t live = chunks_[order_[pos].number]->live; live != 0;
         live &= live - 1) {
      if (filled == kChunkSlots) {
        ++out;
        filled = 0;
      }
      const SlotRef from = base + static_cast<SlotRef>(std::countr_zero(live));
      const SlotRef to = order_[out].number * kChunkSlots + filled;
      if (from != to) move_slot(from, to);
      ++filled;
    }
  }
  for (std::size_t pos = first; pos < end; ++pos) {
    Chunk& chunk = *chunks_[order_[pos].number];
    const SlotRef count = pos < out ? kChunkSlots : pos == out ? filled : 0;
    chunk.used = count;
    chunk.live = low_bits(count);
    if (count > 0) order_[pos].first_id = chunk.slots[0].id;
  }
  for (std::size_t pos = end; pos > out + 1; --pos) free_chunk(pos - 1);
}

SlotRef ShardEntries::make_room(std::uint64_t id) {
  const Chunk* last =
      order_.empty() ? nullptr : chunks_[order_.back().number].get();
  if (last == nullptr || last->slots[last->used - 1].id < id) {
    // A fresh write: append to the last chunk, packing the shard first
    // when its tombstones would otherwise cost another chunk.
    if (last != nullptr && last->used == kChunkSlots &&
        allocated_slots() > size_ + size_ / 8) {
      pack(0, order_.size());
    }
    if (order_.empty() ||
        chunks_[order_.back().number]->used == kChunkSlots) {
      order_.push_back(Place{id, new_chunk()});
    }
    const SlotRef number = order_.back().number;
    const SlotRef ref = number * kChunkSlots + chunks_[number]->used++;
    set_id(at(ref), id);
    return ref;
  }
  // An older id: into the last chunk whose first id is <= id (else the
  // first chunk).
  std::size_t pos = chunk_of(id);
  Chunk* chunk = chunks_[order_[pos].number].get();
  SlotRef index = index_of(*chunk, id);
  // A tombstone at the place (abort restores a taken id) or just below it
  // takes the id without moving anything.
  if (index < chunk->used && chunk->slots[index].id == id) {
    TB_ASSERT((chunk->live >> index & 1) == 0);  // ids are unique
  } else if (index > 0 && (chunk->live >> (index - 1) & 1) == 0) {
    --index;
  } else {
    if (chunk->used == kChunkSlots) {
      if (chunk->live != ~std::uint64_t{0}) {
        pack(pos, pos + 1);  // squeeze out the tombstones
      } else {
        split(pos);
        if (order_[pos + 1].first_id < id) ++pos;
        chunk = chunks_[order_[pos].number].get();
      }
      index = index_of(*chunk, id);
    }
    index = open_slot(pos, index) % kChunkSlots;
  }
  set_id(chunk->slots[index], id);
  if (index == 0) order_[pos].first_id = id;
  return order_[pos].number * kChunkSlots + index;
}

void ShardEntries::store(std::uint64_t id, std::uint64_t key, Tuple&& tuple,
                         std::int64_t deadline) {
  TB_ASSERT(cursors_ == 0);  // placing may move slots under a Scan
  const SlotRef ref = make_room(id);
  Slot& slot = at(ref);
  unpoison_entry(slot);
  stored_bytes_ += tuple.byte_size();
  ::new (static_cast<void*>(&slot.entry)) Entry{std::move(tuple)};
  if (deadline != kNoDeadline) slot.entry.timer = wheel_->arm(deadline, id);
  chunks_[ref / kChunkSlots]->live |= std::uint64_t{1} << (ref % kChunkSlots);
  ++size_;
  if (use_type_index_) link(ref, key);
}

// --- type chains -------------------------------------------------------------

ShardEntries::Chain& ShardEntries::chain_of(const Entry& entry) {
  const auto chain =
      index_.find(type_key(entry.tuple.name, entry.tuple.arity()));
  TB_ASSERT(chain != index_.end());
  return chain->second;
}

void ShardEntries::link(SlotRef ref, std::uint64_t key) {
  Chain& chain = index_.try_emplace(key).first->second;
  const std::uint64_t id = at(ref).id;
  Entry& entry = at(ref).entry;
  if (chain.tail == kNoSlot) {
    chain.head = chain.tail = ref;
    return;
  }
  if (at(chain.tail).id < id) {  // a fresh write
    entry.prev_of_type = chain.tail;
    at(chain.tail).entry.next_of_type = ref;
    chain.tail = ref;
    return;
  }
  // An older id: find its successor. Inside the chain (head < id < tail),
  // walk from whichever end is nearer in id; neither walk can pass an end.
  SlotRef next = chain.head;
  const std::uint64_t head_id = at(chain.head).id;
  if (head_id < id) {
    if (id - head_id < at(chain.tail).id - id) {
      while (at(next).id < id) next = at(next).entry.next_of_type;
    } else {
      next = chain.tail;
      while (at(at(next).entry.prev_of_type).id > id) {
        next = at(next).entry.prev_of_type;
      }
    }
  }
  const SlotRef prev = at(next).entry.prev_of_type;
  entry.prev_of_type = prev;
  entry.next_of_type = next;
  at(next).entry.prev_of_type = ref;
  if (prev == kNoSlot) {
    chain.head = ref;
  } else {
    at(prev).entry.next_of_type = ref;
  }
}

void ShardEntries::unlink(SlotRef ref) {
  const Entry& entry = at(ref).entry;
  const SlotRef prev = entry.prev_of_type;
  const SlotRef next = entry.next_of_type;
  if (prev != kNoSlot) at(prev).entry.next_of_type = next;
  if (next != kNoSlot) at(next).entry.prev_of_type = prev;
  if (prev != kNoSlot && next != kNoSlot) return;  // mid-chain: no lookup
  Chain& chain = chain_of(entry);
  if (prev == kNoSlot) chain.head = next;
  if (next == kNoSlot) chain.tail = prev;
}

// --- entries -----------------------------------------------------------------

std::int64_t ShardEntries::deadline(const Entry& entry) const {
  if (entry.timer == 0) return kNoDeadline;
  // A fired timer's entry is due but not yet reclaimed: each engine erases
  // it as soon as its wheel's advance() reports the payload.
  return wheel_->deadline_of(entry.timer).value_or(kAllVisible);
}

Tuple ShardEntries::erase(SlotRef ref) {
  Slot& slot = at(ref);
  wheel_->cancel(slot.entry.timer);  // stale-safe after the timer fired
  if (use_type_index_) unlink(ref);
  Tuple tuple = std::move(slot.entry.tuple);
  stored_bytes_ -= tuple.byte_size();
  slot.entry.~Entry();
  poison_entry(slot);
  --size_;
  Chunk& chunk = *chunks_[ref / kChunkSlots];
  chunk.live &= ~(std::uint64_t{1} << (ref % kChunkSlots));
  // Nothing moves: a Scan's cursor rests on a live slot, never this one,
  // so freeing this slot's chunk cannot strand it.
  if (chunk.live == 0) free_chunk(chunk_of(chunk.slots[0].id));
  return tuple;
}

void ShardEntries::rearm(SlotRef ref, std::int64_t deadline) {
  Slot& slot = at(ref);
  wheel_->cancel(slot.entry.timer);
  slot.entry.timer =
      deadline == kNoDeadline ? 0 : wheel_->arm(deadline, slot.id);
}

ShardEntries::Hit ShardEntries::find_live(
    std::span<ShardEntries* const> shards, std::uint64_t id,
    std::int64_t now) {
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const SlotRef ref = shards[s]->find(id);
    if (ref == kNoSlot) continue;
    Slot& slot = shards[s]->at(ref);
    if (shards[s]->expired(slot.entry, now)) return {};  // expiry due
    return {static_cast<int>(s), ref, &slot};
  }
  return {};
}

std::vector<Tuple> ShardEntries::bulk(std::span<ShardEntries* const> shards,
                                      const Template& tmpl, std::int64_t now,
                                      std::size_t max, bool take,
                                      std::uint64_t* scan_steps,
                                      std::vector<std::uint64_t>* taken_ids) {
  // One pass in id order — never repeated single matches, which would
  // rescan from the start for every taken tuple.
  std::vector<Tuple> out;
  Scan scan(shards, tmpl, now, scan_steps);
  while (out.size() < max) {
    const Hit hit = scan.next();
    if (!hit) break;
    if (take && taken_ids != nullptr) taken_ids->push_back(hit.slot->id);
    out.push_back(take ? shards[static_cast<std::size_t>(hit.shard)]->erase(
                             hit.ref)
                       : hit.slot->entry.tuple);
  }
  return out;
}

// --- Scan --------------------------------------------------------------------

Scan::Scan(std::span<ShardEntries* const> shards, std::int64_t now)
    : shards_(shards), now_(now) {
  start_merge();
}

Scan::Scan(std::span<ShardEntries* const> shards, const Template& tmpl,
           std::int64_t now, std::uint64_t* scan_steps)
    : shards_(shards), tmpl_(&tmpl), now_(now), scan_steps_(scan_steps) {
  if (!tmpl.name.has_value()) {
    start_merge();
    return;
  }
  // Every tuple of this (name, arity) shape lives on one shard.
  const std::uint64_t key = type_key(*tmpl.name, tmpl.arity());
  shard_ = shard_route(key, shards.size());
  ShardEntries& shard = *shards[static_cast<std::size_t>(shard_)];
  ++shard.cursors_;
  if (!shard.use_type_index_) {
    mode_ = Mode::kLinear;
    at_ = shard.first_live();
    return;
  }
  const auto chain = shard.index_.find(key);
  if (chain == shard.index_.end()) return;  // kDone
  mode_ = Mode::kIndexed;
  at_ = chain->second.head;
}

Scan::~Scan() {
  if (mode_ == Mode::kMerge) {
    for (ShardEntries* shard : shards_) --shard->cursors_;
  } else if (tmpl_ != nullptr) {
    --shards_[static_cast<std::size_t>(shard_)]->cursors_;
  }
}

void Scan::start_merge() {
  mode_ = Mode::kMerge;
  cursor_.reserve(shards_.size());
  for (ShardEntries* shard : shards_) {
    ++shard->cursors_;
    cursor_.push_back(shard->first_live());
  }
}

ShardEntries::Hit Scan::advance() {
  switch (mode_) {
    case Mode::kDone:
      return {};
    case Mode::kIndexed:
    case Mode::kLinear: {
      if (at_ == kNoSlot) return {};
      // Step to the next live entry first: the caller may erase this one,
      // which tombstones it (and may free its chunk) but moves nothing.
      ShardEntries& shard = *shards_[static_cast<std::size_t>(shard_)];
      const SlotRef ref = at_;
      Slot& slot = shard.at(ref);
      at_ = mode_ == Mode::kIndexed ? slot.entry.next_of_type
                                    : shard.next_live(ref);
      return {shard_, ref, &slot};
    }
    case Mode::kMerge: {
      // The id-ordered k-way merge: ids are monotonic write timestamps, so
      // taking the smallest head across the shards preserves the paper's
      // oldest-first total order under any partitioning.
      std::size_t best = shards_.size();
      std::uint64_t best_id = 0;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (cursor_[s] == kNoSlot) continue;
        const std::uint64_t id = shards_[s]->at(cursor_[s]).id;
        if (best == shards_.size() || id < best_id) {
          best = s;
          best_id = id;
        }
      }
      if (best == shards_.size()) return {};
      ShardEntries& shard = *shards_[best];
      const SlotRef ref = cursor_[best];
      cursor_[best] = shard.next_live(ref);
      return {static_cast<int>(best), ref, &shard.at(ref)};
    }
  }
  return {};
}

ShardEntries::Hit Scan::next() {
  for (;;) {
    const ShardEntries::Hit hit = advance();
    if (!hit) return hit;
    if (scan_steps_ != nullptr) ++*scan_steps_;
    const Entry& entry = hit.slot->entry;
    const ShardEntries& shard = *shards_[static_cast<std::size_t>(hit.shard)];
    if (shard.expired(entry, now_)) continue;  // due, not yet reclaimed
    if (tmpl_ == nullptr || tmpl_->matches(entry.tuple)) return hit;
  }
}

}  // namespace tb::space
