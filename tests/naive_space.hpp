// A deliberately naive tuplespace: the reference model the differential
// replay and the space property tests check both engines against.
//
// One std::vector of entries, scanned linearly on every operation: no type
// index, no shards, no timer wheel, no ordered containers, and no code shared
// with src/space — SpaceEngine and ThreadedSpaceEngine share ShardStore, so
// replaying a threaded log through SpaceEngine alone would check that core
// against itself. The JavaSpaces rules are spelled out as directly as
// possible:
//
//  * ids are issued in operation order and are the total order: a match is
//    the visible matching entry with the smallest id;
//  * an entry is visible while its deadline is in the future;
//  * a published tuple is announced to every live notify registration, then
//    offered to blocked operations in registration order — each reader gets
//    a copy, the first take consumes it — and stored otherwise;
//  * a transaction's writes stay private until commit; its takes hold the
//    entry until abort restores it.
//
// It runs on a sim::Simulator like the deterministic engine (the replay's
// clock): completions are delivered through zero-delay events, blocked
// timeouts and lease deadlines are plain scheduled events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/space/engine.hpp"
#include "src/space/tuple.hpp"

namespace tb::space {

class NaiveSpace {
 public:
  using MatchCallback = std::function<void(std::optional<Tuple>)>;
  using NotifyCallback = std::function<void(const Tuple&)>;

  explicit NaiveSpace(sim::Simulator& sim) : sim_(sim) {}

  NaiveSpace(const NaiveSpace&) = delete;
  NaiveSpace& operator=(const NaiveSpace&) = delete;

  Lease write(Tuple tuple, sim::Time lease = kLeaseForever,
              std::uint64_t txn = kNoTxn) {
    const Item item{next_id_++, std::move(tuple), deadline_after(lease)};
    if (txn != kNoTxn) {
      transaction(txn).writes.push_back(item);
      return Lease{item.id, item.deadline};
    }
    ++stats_.writes;
    announce(item.tuple);
    publish(item);
    return Lease{item.id, item.deadline};
  }

  std::optional<Tuple> read_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn) {
    if (const Item* item = oldest(tmpl)) {
      ++stats_.reads;
      return item->tuple;
    }
    if (txn != kNoTxn) {
      for (const Item& pending : transaction(txn).writes) {
        if (visible(pending) && tmpl.matches(pending.tuple)) {
          ++stats_.reads;
          return pending.tuple;
        }
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }

  std::optional<Tuple> take_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn) {
    if (const Item* item = oldest(tmpl)) {
      ++stats_.takes;
      if (txn != kNoTxn) transaction(txn).held.push_back(*item);
      return remove(item->id).tuple;
    }
    if (txn != kNoTxn) {
      std::vector<Item>& writes = transaction(txn).writes;
      for (auto pending = writes.begin(); pending != writes.end(); ++pending) {
        if (visible(*pending) && tmpl.matches(pending->tuple)) {
          ++stats_.takes;
          Tuple tuple = pending->tuple;
          writes.erase(pending);
          return tuple;
        }
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }

  std::vector<Tuple> read_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX) {
    std::vector<Tuple> out;
    for (const Item& item : matches(tmpl, max)) {
      ++stats_.reads;
      out.push_back(item.tuple);
    }
    return out;
  }

  std::vector<Tuple> take_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX) {
    std::vector<Tuple> out;
    for (const Item& item : matches(tmpl, max)) {
      ++stats_.takes;
      out.push_back(remove(item.id).tuple);
    }
    return out;
  }

  void read_async(Template tmpl, sim::Time timeout, MatchCallback callback) {
    block(std::move(tmpl), timeout, std::move(callback), /*take=*/false);
  }
  void take_async(Template tmpl, sim::Time timeout, MatchCallback callback) {
    block(std::move(tmpl), timeout, std::move(callback), /*take=*/true);
  }

  std::uint64_t begin_transaction() {
    const std::uint64_t id = next_id_++;
    txns_.push_back(Txn{id, {}, {}});
    return id;
  }

  bool commit(std::uint64_t txn) {
    const std::optional<Txn> resolved = resolve(txn);
    if (!resolved.has_value()) return false;
    ++stats_.commits;
    for (const Item& pending : resolved->writes) {
      if (!visible(pending)) continue;  // its lease ran out while pending
      ++stats_.writes;
      announce(pending.tuple);
      publish(pending);
    }
    return true;
  }

  bool abort(std::uint64_t txn) {
    const std::optional<Txn> resolved = resolve(txn);
    if (!resolved.has_value()) return false;
    ++stats_.aborts;
    // Held entries come back under their original ids, unannounced.
    for (const Item& held : resolved->held) {
      if (visible(held)) publish(held);
    }
    return true;
  }

  std::uint64_t notify(Template tmpl, sim::Time lease,
                       NotifyCallback callback) {
    const std::uint64_t id = next_id_++;
    listeners_.push_back(Listener{id, std::move(tmpl), deadline_after(lease),
                                  std::move(callback)});
    return id;
  }

  bool cancel_notify(std::uint64_t registration) {
    for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
      if (it->id != registration) continue;
      const bool live = it->deadline > sim_.now();
      listeners_.erase(it);
      return live;
    }
    return false;
  }

  std::optional<Lease> renew(std::uint64_t id, sim::Time extension) {
    for (Item& item : items_) {
      if (item.id != id || !visible(item)) continue;
      item.deadline = deadline_after(extension);
      reap_at(item.deadline);
      ++stats_.renewals;
      return Lease{id, item.deadline};
    }
    return std::nullopt;
  }

  bool cancel(std::uint64_t id) {
    for (const Item& item : items_) {
      if (item.id != id || !visible(item)) continue;
      remove(id);
      ++stats_.cancellations;
      return true;
    }
    return false;
  }

  /// Every visible tuple, oldest first.
  std::vector<Tuple> snapshot() const {
    std::vector<Item> live;
    for (const Item& item : items_) {
      if (visible(item)) live.push_back(item);
    }
    std::sort(live.begin(), live.end(),
              [](const Item& a, const Item& b) { return a.id < b.id; });
    std::vector<Tuple> out;
    for (const Item& item : live) out.push_back(item.tuple);
    return out;
  }

  /// Operation counts in SpaceEngine's shape; scan_steps and peaks stay 0.
  SpaceEngine::Stats stats() const { return stats_; }

 private:
  struct Item {
    std::uint64_t id = 0;
    Tuple tuple;
    sim::Time deadline;
  };
  struct Waiter {
    std::uint64_t id = 0;
    Template tmpl;
    bool take = false;
    MatchCallback callback;
  };
  struct Listener {
    std::uint64_t id = 0;
    Template tmpl;
    sim::Time deadline;
    NotifyCallback callback;
  };
  struct Txn {
    std::uint64_t id = 0;
    std::vector<Item> writes;
    std::vector<Item> held;
  };

  sim::Time deadline_after(sim::Time lease) const {
    return lease == kLeaseForever ? sim::Time::max() : sim_.now() + lease;
  }
  bool visible(const Item& item) const { return item.deadline > sim_.now(); }

  /// The oldest visible match, or nullptr.
  const Item* oldest(const Template& tmpl) const {
    const Item* best = nullptr;
    for (const Item& item : items_) {
      if (!visible(item) || !tmpl.matches(item.tuple)) continue;
      if (best == nullptr || item.id < best->id) best = &item;
    }
    return best;
  }

  /// Up to `max` visible matches, oldest first (copies).
  std::vector<Item> matches(const Template& tmpl, std::size_t max) const {
    std::vector<Item> out;
    for (const Item& item : items_) {
      if (visible(item) && tmpl.matches(item.tuple)) out.push_back(item);
    }
    std::sort(out.begin(), out.end(),
              [](const Item& a, const Item& b) { return a.id < b.id; });
    if (out.size() > max) out.resize(max);
    return out;
  }

  Item remove(std::uint64_t id) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->id != id) continue;
      Item item = std::move(*it);
      items_.erase(it);
      return item;
    }
    throw std::logic_error("naive space: removing an absent entry");
  }

  Txn& transaction(std::uint64_t txn) {
    for (Txn& t : txns_) {
      if (t.id == txn) return t;
    }
    throw std::logic_error("naive space: unknown transaction");
  }

  std::optional<Txn> resolve(std::uint64_t txn) {
    for (auto it = txns_.begin(); it != txns_.end(); ++it) {
      if (it->id != txn) continue;
      Txn resolved = std::move(*it);
      txns_.erase(it);
      return resolved;
    }
    return std::nullopt;
  }

  void deliver(MatchCallback callback, std::optional<Tuple> result) {
    sim_.schedule_in(sim::Time::zero(),
                     [cb = std::move(callback), r = std::move(result)] {
                       cb(r);
                     });
  }

  void announce(const Tuple& tuple) {
    for (const Listener& listener : listeners_) {
      if (listener.deadline <= sim_.now() || !listener.tmpl.matches(tuple)) {
        continue;
      }
      ++stats_.notifications;
      sim_.schedule_in(sim::Time::zero(),
                       [cb = listener.callback, tuple] { cb(tuple); });
    }
  }

  void publish(Item item) {
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      if (!it->tmpl.matches(item.tuple)) {
        ++it;
        continue;
      }
      Waiter waiter = std::move(*it);
      it = waiters_.erase(it);
      if (waiter.take) {
        ++stats_.takes;
        deliver(std::move(waiter.callback), std::move(item.tuple));
        return;
      }
      ++stats_.reads;
      deliver(std::move(waiter.callback), item.tuple);
    }
    reap_at(item.deadline);
    items_.push_back(std::move(item));
  }

  void block(Template tmpl, sim::Time timeout, MatchCallback callback,
             bool take) {
    if (const Item* item = oldest(tmpl)) {
      ++(take ? stats_.takes : stats_.reads);
      deliver(std::move(callback),
              take ? remove(item->id).tuple : item->tuple);
      return;
    }
    if (timeout <= sim::Time::zero()) {
      ++stats_.misses;
      deliver(std::move(callback), std::nullopt);
      return;
    }
    const std::uint64_t id = next_id_++;
    waiters_.push_back(Waiter{id, std::move(tmpl), take, std::move(callback)});
    if (timeout == kLeaseForever) return;
    sim_.schedule_in(timeout, [this, id] {
      for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
        if (it->id != id) continue;
        MatchCallback callback = std::move(it->callback);
        waiters_.erase(it);
        ++stats_.misses;
        callback(std::nullopt);
        return;
      }
    });
  }

  /// Drops every entry whose deadline has passed, at `deadline`.
  void reap_at(sim::Time deadline) {
    if (deadline == sim::Time::max()) return;
    sim_.schedule_at(deadline, [this] {
      const auto expired = std::remove_if(
          items_.begin(), items_.end(),
          [this](const Item& item) { return !visible(item); });
      stats_.expirations +=
          static_cast<std::uint64_t>(std::distance(expired, items_.end()));
      items_.erase(expired, items_.end());
    });
  }

  sim::Simulator& sim_;
  std::uint64_t next_id_ = 1;
  std::vector<Item> items_;
  std::vector<Waiter> waiters_;  ///< registration order
  std::vector<Listener> listeners_;
  std::vector<Txn> txns_;
  SpaceEngine::Stats stats_;
};

}  // namespace tb::space
