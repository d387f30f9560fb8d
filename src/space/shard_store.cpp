#include "src/space/shard_store.hpp"

#include <iterator>

#include "src/util/assert.hpp"

namespace tb::space {

ShardEntries::ShardEntries(ShardEntries&& other) noexcept
    : wheel_(other.wheel_), use_type_index_(other.use_type_index_) {
  TB_ASSERT(other.entries_.empty());
}

void ShardEntries::store(std::uint64_t id, std::uint64_t key, Tuple&& tuple,
                         std::int64_t deadline) {
  Entry entry;
  entry.prev_of_type = entry.next_of_type = entries_.end();
  if (deadline != kNoDeadline) entry.timer = wheel_->arm(deadline, id);
  stored_bytes_ += tuple.byte_size();
  entry.tuple = std::move(tuple);
  // Ids are monotonic, so a fresh write lands past the current maximum and
  // the end() hint makes the insert amortized O(1). Commit publication and
  // abort restoration store older ids; the hint then just misses.
  const std::size_t before = entries_.size();
  const auto it = entries_.emplace_hint(entries_.end(), id, std::move(entry));
  TB_ASSERT(entries_.size() == before + 1);  // ids are unique
  if (use_type_index_) link(it, key);
}

void ShardEntries::link(Map::iterator it, std::uint64_t key) {
  const Map::iterator none = entries_.end();
  const std::uint64_t id = it->first;
  Chain& chain = index_.try_emplace(key, Chain{none, none}).first->second;
  if (chain.tail == none) {
    chain.head = chain.tail = it;
    return;
  }
  if (chain.tail->first < id) {  // a fresh write
    it->second.prev_of_type = chain.tail;
    chain.tail->second.next_of_type = it;
    chain.tail = it;
    return;
  }
  // An older id: find its successor. Inside the chain (head < id < tail),
  // walk from whichever end is nearer in id; neither walk can pass an end.
  Map::iterator next = chain.head;
  if (chain.head->first < id) {
    if (id - chain.head->first < chain.tail->first - id) {
      while (next->first < id) next = next->second.next_of_type;
    } else {
      next = chain.tail;
      while (next->second.prev_of_type->first > id) {
        next = next->second.prev_of_type;
      }
    }
  }
  const Map::iterator prev = next->second.prev_of_type;
  it->second.prev_of_type = prev;
  it->second.next_of_type = next;
  next->second.prev_of_type = it;
  if (prev == none) {
    chain.head = it;
  } else {
    prev->second.next_of_type = it;
  }
}

void ShardEntries::unlink(Map::iterator it) {
  const Map::iterator none = entries_.end();
  const Map::iterator prev = it->second.prev_of_type;
  const Map::iterator next = it->second.next_of_type;
  if (prev != none) prev->second.next_of_type = next;
  if (next != none) next->second.prev_of_type = prev;
  if (prev != none && next != none) return;  // mid-chain: no index lookup
  const Tuple& tuple = it->second.tuple;
  const auto chain = index_.find(type_key(tuple.name, tuple.arity()));
  TB_ASSERT(chain != index_.end());
  if (prev == none) chain->second.head = next;
  if (next == none) chain->second.tail = prev;
}

std::int64_t ShardEntries::deadline(const Entry& entry) const {
  if (entry.timer == 0) return kNoDeadline;
  // A fired timer's entry is due but not yet reclaimed: each engine erases
  // it as soon as its wheel's advance() reports the payload.
  return wheel_->deadline_of(entry.timer).value_or(kAllVisible);
}

Tuple ShardEntries::erase(Map::iterator it) {
  wheel_->cancel(it->second.timer);  // stale-safe after the timer fired
  if (use_type_index_) unlink(it);
  Tuple tuple = std::move(it->second.tuple);
  stored_bytes_ -= tuple.byte_size();
  entries_.erase(it);
  return tuple;
}

void ShardEntries::rearm(Map::iterator it, std::int64_t deadline) {
  wheel_->cancel(it->second.timer);
  it->second.timer =
      deadline == kNoDeadline ? 0 : wheel_->arm(deadline, it->first);
}

ShardEntries::Hit ShardEntries::find_live(
    std::span<ShardEntries* const> shards, std::uint64_t id,
    std::int64_t now) {
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto it = shards[s]->entries_.find(id);
    if (it == shards[s]->entries_.end()) continue;
    if (shards[s]->expired(it->second, now)) return {};  // expiry due
    return {static_cast<int>(s), it};
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
    if (take && taken_ids != nullptr) taken_ids->push_back(hit.it->first);
    out.push_back(take ? shards[static_cast<std::size_t>(hit.shard)]->erase(
                             hit.it)
                       : hit.it->second.tuple);
  }
  return out;
}

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
  if (!shard.use_type_index_) {
    mode_ = Mode::kLinear;
    it_ = shard.entries_.begin();
    return;
  }
  const auto chain = shard.index_.find(key);
  if (chain == shard.index_.end()) return;  // kDone
  mode_ = Mode::kIndexed;
  it_ = chain->second.head;
}

void Scan::start_merge() {
  mode_ = Mode::kMerge;
  cursor_.reserve(shards_.size());
  for (ShardEntries* shard : shards_) {
    cursor_.push_back(shard->entries_.begin());
  }
}

ShardEntries::Hit Scan::advance() {
  switch (mode_) {
    case Mode::kDone:
      return {};
    case Mode::kIndexed:
    case Mode::kLinear: {
      if (it_ == shards_[static_cast<std::size_t>(shard_)]->entries_.end()) {
        return {};
      }
      // Step past the entry first: the caller may erase it, which unlinks
      // it from its chain and must not invalidate our position.
      const auto it = it_;
      it_ = mode_ == Mode::kIndexed ? it->second.next_of_type : std::next(it);
      return {shard_, it};
    }
    case Mode::kMerge: {
      // The id-ordered k-way merge: ids are monotonic write timestamps, so
      // taking the smallest head across the shard maps preserves the
      // paper's oldest-first total order under any partitioning.
      std::size_t best = shards_.size();
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (cursor_[s] == shards_[s]->entries_.end()) continue;
        if (best == shards_.size() ||
            cursor_[s]->first < cursor_[best]->first) {
          best = s;
        }
      }
      if (best == shards_.size()) return {};
      return {static_cast<int>(best), cursor_[best]++};
    }
  }
  return {};
}

ShardEntries::Hit Scan::next() {
  for (;;) {
    const ShardEntries::Hit hit = advance();
    if (!hit) return hit;
    if (scan_steps_ != nullptr) ++*scan_steps_;
    const Entry& entry = hit.it->second;
    const ShardEntries& shard = *shards_[static_cast<std::size_t>(hit.shard)];
    if (shard.expired(entry, now_)) continue;  // due, not yet reclaimed
    if (tmpl_ == nullptr || tmpl_->matches(entry.tuple)) return hit;
  }
}

}  // namespace tb::space
