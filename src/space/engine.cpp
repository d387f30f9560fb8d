#include "src/space/engine.hpp"

#include <algorithm>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace tb::space {

SpaceEngine::SpaceEngine(sim::Simulator& sim, SpaceConfig config)
    : sim_(&sim), config_(config) {
  TB_REQUIRE_MSG(config_.execution_mode == ExecutionMode::kDeterministic,
                 "SpaceEngine is the deterministic runtime; threaded configs "
                 "belong to ThreadedSpaceEngine (threaded.hpp)");
  const int count = config_.shard_count < 1 ? 1 : config_.shard_count;
  shards_.reserve(count);  // stores_ points into shards_: no reallocation
  for (int s = 0; s < count; ++s) {
    stores_.push_back(
        &shards_.emplace_back(config_.use_type_index, wheel_).store);
  }
}

std::size_t SpaceEngine::size() const { return entry_count_; }

std::vector<Tuple> SpaceEngine::snapshot() const {
  // Observation only: no stats side effects.
  std::vector<Tuple> out;
  out.reserve(entry_count_);
  Scan scan(stores_, now_ns());
  while (const Hit hit = scan.next()) out.push_back(hit.slot->entry.tuple);
  return out;
}

std::optional<std::pair<std::uint64_t, Tuple>> SpaceEngine::peek_oldest(
    const Template& tmpl) {
  const Hit hit = find_match(tmpl);
  if (!hit) return std::nullopt;
  return std::make_pair(hit.slot->id, hit.slot->entry.tuple);
}

std::optional<Tuple> SpaceEngine::take_by_id(std::uint64_t id) {
  const Hit hit = ShardEntries::find_live(stores_, id, now_ns());
  if (!hit) return std::nullopt;
  ++stats_.takes;
  return erase_entry(hit);
}

std::vector<std::pair<std::uint64_t, Tuple>> SpaceEngine::snapshot_with_ids()
    const {
  std::vector<std::pair<std::uint64_t, Tuple>> out;
  out.reserve(entry_count_);
  Scan scan(stores_, now_ns());
  while (const Hit hit = scan.next()) {
    out.emplace_back(hit.slot->id, hit.slot->entry.tuple);
  }
  return out;
}

std::size_t SpaceEngine::stored_bytes() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.store.stored_bytes();
  return total;
}

std::size_t SpaceEngine::blocked_operations() const {
  std::size_t total = wildcard_waiters_.size();
  for (const Shard& shard : shards_) total += shard.store.waiters().size();
  return total;
}

void SpaceEngine::deliver(MatchCallback callback, std::optional<Tuple> result) {
  sim_->schedule_in(sim::Time::zero(),
                    [cb = std::move(callback), r = std::move(result)]() mutable {
                      cb(std::move(r));
                    });
}

void SpaceEngine::record_match(int shard, bool take, std::uint64_t waited_ns) {
  if (take) {
    if (match_take_ns_) match_take_ns_->record(waited_ns);
    if (obs::Histogram* h = shards_[shard].match_take_ns) h->record(waited_ns);
  } else {
    if (match_read_ns_) match_read_ns_->record(waited_ns);
    if (obs::Histogram* h = shards_[shard].match_read_ns) h->record(waited_ns);
  }
}

void SpaceEngine::fire_notifications(const Tuple& tuple) {
  // Notify registrations fire for every matching write, even when a blocked
  // take consumes the entry before it reaches the store (JavaSpaces
  // semantics: the event is the write itself). Registrations are
  // engine-level: they observe writes on every shard.
  for (auto& [id, reg] : notifies_) {
    if (reg.tmpl.matches(tuple)) {
      ++stats_.notifications;
      sim_->schedule_in(sim::Time::zero(), [cb = reg.callback, t = tuple] {
        cb(t);
      });
    }
  }
}

void SpaceEngine::publish(std::uint64_t id, Tuple tuple, sim::Time expires_at) {
  const std::uint64_t key = type_key(tuple.name, tuple.arity());
  const int shard_idx = shard_of(key);
  const bool consumed = shards_[shard_idx].store.publish(
      id, key, std::move(tuple), expires_at.count_ns(), &wildcard_waiters_,
      [this, shard_idx](Waiter waiter, bool /*from_wildcard*/, Tuple served) {
        sim_->cancel(waiter.payload.timeout_event);
        ++(waiter.take ? stats_.takes : stats_.reads);
        record_match(shard_idx, waiter.take,
                     static_cast<std::uint64_t>(
                         (sim_->now() - waiter.payload.enqueued).count_ns()));
        deliver(std::move(waiter.payload.callback), std::move(served));
      });
  if (consumed) {
    if (removed_) removed_(id);
    return;
  }
  if (expires_at != sim::Time::max()) reschedule_wheel();
  ++entry_count_;
  stats_.peak_size = std::max(stats_.peak_size, entry_count_);
}

Lease SpaceEngine::write(Tuple tuple, sim::Time lease_duration,
                         std::uint64_t txn) {
  TB_REQUIRE(lease_duration > sim::Time::zero());
  Lease lease;
  lease.id = next_id_++;
  lease.expires_at = lease_duration == kLeaseForever
                         ? sim::Time::max()
                         : sim_->now() + lease_duration;

  if (txn != kNoTxn) {
    Txn* transaction = find_txn(txn);
    TB_REQUIRE_MSG(transaction != nullptr, "unknown transaction");
    transaction->writes.push_back(
        PendingWrite{lease.id, std::move(tuple), lease.expires_at});
    return lease;
  }

  ++stats_.writes;
  if (!notifies_.empty()) fire_notifications(tuple);
  publish(lease.id, std::move(tuple), lease.expires_at);
  return lease;
}

SpaceEngine::Hit SpaceEngine::find_match(const Template& tmpl) {
  return Scan(stores_, tmpl, now_ns(), &stats_.scan_steps).next();
}

Tuple SpaceEngine::erase_entry(Hit hit, bool for_good) {
  --entry_count_;
  if (for_good && removed_) removed_(hit.slot->id);
  return shards_[hit.shard].store.erase(hit.ref);
}

std::optional<Tuple> SpaceEngine::read_if_exists(const Template& tmpl,
                                                 std::uint64_t txn) {
  const Hit hit = find_match(tmpl);
  if (hit) {
    ++stats_.reads;
    return hit.slot->entry.tuple;
  }
  if (txn != kNoTxn) {
    Txn* transaction = find_txn(txn);
    TB_REQUIRE_MSG(transaction != nullptr, "unknown transaction");
    // A transaction sees its own provisional writes.
    for (const PendingWrite& pending : transaction->writes) {
      if (pending.expires_at > sim_->now() && tmpl.matches(pending.tuple)) {
        ++stats_.reads;
        return pending.tuple;
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::optional<Tuple> SpaceEngine::take_if_exists(const Template& tmpl,
                                                 std::uint64_t txn) {
  const Hit hit = find_match(tmpl);
  if (hit) {
    ++stats_.takes;
    const bool held = txn != kNoTxn;
    if (held) {
      Txn* transaction = find_txn(txn);
      TB_REQUIRE_MSG(transaction != nullptr, "unknown transaction");
      // Hold a copy of the committed entry: invisible to everyone until the
      // transaction resolves; abort restores it with its remaining lease.
      const sim::Time expires_at =
          sim::Time::ns(shards_[hit.shard].store.deadline(hit.slot->entry));
      transaction->held.push_back(
          HeldEntry{hit.slot->id, hit.slot->entry.tuple, expires_at});
    }
    // The stored buffers move out to the caller.
    return erase_entry(hit, /*for_good=*/!held);
  }
  if (txn != kNoTxn) {
    Txn* transaction = find_txn(txn);
    TB_REQUIRE_MSG(transaction != nullptr, "unknown transaction");
    // Taking one's own provisional write simply unwrites it.
    for (auto pending = transaction->writes.begin();
         pending != transaction->writes.end(); ++pending) {
      if (pending->expires_at > sim_->now() && tmpl.matches(pending->tuple)) {
        ++stats_.takes;
        Tuple result = std::move(pending->tuple);
        transaction->writes.erase(pending);
        return result;
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::vector<Tuple> SpaceEngine::read_all(const Template& tmpl,
                                         std::size_t max) {
  std::vector<Tuple> out = ShardEntries::bulk(stores_, tmpl, now_ns(), max,
                                              /*take=*/false,
                                              &stats_.scan_steps);
  stats_.reads += out.size();
  return out;
}

std::vector<Tuple> SpaceEngine::take_all(const Template& tmpl,
                                         std::size_t max) {
  std::vector<std::uint64_t> ids;
  std::vector<Tuple> out = ShardEntries::bulk(stores_, tmpl, now_ns(), max,
                                              /*take=*/true,
                                              &stats_.scan_steps,
                                              removed_ ? &ids : nullptr);
  for (const std::uint64_t id : ids) removed_(id);
  stats_.takes += out.size();
  entry_count_ -= out.size();
  return out;
}

SpaceEngine::Txn* SpaceEngine::find_txn(std::uint64_t txn) {
  auto it = transactions_.find(txn);
  return it == transactions_.end() ? nullptr : &it->second;
}

std::uint64_t SpaceEngine::begin_transaction(sim::Time timeout) {
  TB_REQUIRE(timeout > sim::Time::zero());
  Txn transaction;
  transaction.id = next_id_++;
  if (timeout != kLeaseForever) {
    transaction.timeout_event =
        sim_->schedule_in(timeout, [this, id = transaction.id] {
          auto it = transactions_.find(id);
          if (it != transactions_.end()) {
            resolve_txn(it, /*commit_it=*/false);
          }
        });
  }
  const std::uint64_t id = transaction.id;
  transactions_.emplace(id, std::move(transaction));
  return id;
}

void SpaceEngine::resolve_txn(std::map<std::uint64_t, Txn>::iterator it,
                              bool commit_it) {
  Txn transaction = std::move(it->second);
  transactions_.erase(it);  // resolved before callbacks can observe it
  sim_->cancel(transaction.timeout_event);

  if (commit_it) {
    ++stats_.commits;
    for (PendingWrite& pending : transaction.writes) {
      if (pending.expires_at <= sim_->now()) continue;  // died while pending
      ++stats_.writes;
      fire_notifications(pending.tuple);
      publish(pending.id, std::move(pending.tuple), pending.expires_at);
    }
    // Held takes become permanent.
    if (removed_) {
      for (const HeldEntry& held : transaction.held) removed_(held.original_id);
    }
    return;
  }

  ++stats_.aborts;
  // Restore held entries (original id and remaining lease) without firing
  // notifications: their writes were already announced. Blocked operations
  // do get served — the entry is available again.
  for (HeldEntry& held : transaction.held) {
    if (held.expires_at <= sim_->now()) {  // expired while held: gone
      if (removed_) removed_(held.original_id);
      continue;
    }
    publish(held.original_id, std::move(held.tuple), held.expires_at);
  }
}

bool SpaceEngine::commit(std::uint64_t txn) {
  auto it = transactions_.find(txn);
  if (it == transactions_.end()) return false;
  resolve_txn(it, /*commit_it=*/true);
  return true;
}

bool SpaceEngine::abort(std::uint64_t txn) {
  auto it = transactions_.find(txn);
  if (it == transactions_.end()) return false;
  resolve_txn(it, /*commit_it=*/false);
  return true;
}

void SpaceEngine::blocking_match(Template tmpl, sim::Time timeout,
                                 MatchCallback callback, bool take) {
  TB_REQUIRE(callback != nullptr);
  if (const Hit hit = find_match(tmpl)) {
    ++(take ? stats_.takes : stats_.reads);
    record_match(hit.shard, take, 0);
    deliver(std::move(callback),
            take ? erase_entry(hit) : hit.slot->entry.tuple);
    return;
  }
  if (timeout <= sim::Time::zero()) {
    ++stats_.misses;
    deliver(std::move(callback), std::nullopt);
    return;
  }

  // A name-keyed template parks on its shard's queue; a wildcard template
  // parks on the cross-shard queue that publish() merges with every shard.
  const int route = tmpl.name.has_value()
                        ? shard_of(type_key(*tmpl.name, tmpl.arity()))
                        : kWildcardShard;
  Waiter waiter;
  waiter.id = next_id_++;
  waiter.tmpl = std::move(tmpl);
  waiter.take = take;
  waiter.payload.callback = std::move(callback);
  waiter.payload.enqueued = sim_->now();
  if (timeout != kLeaseForever) {
    waiter.payload.timeout_event =
        sim_->schedule_in(timeout, [this, route, id = waiter.id] {
          Store::Waiters& queue = waiter_queue(route);
          auto pos = std::find_if(queue.begin(), queue.end(),
                                  [id](const Waiter& w) { return w.id == id; });
          TB_ASSERT(pos != queue.end());
          MatchCallback cb = std::move(pos->payload.callback);
          queue.erase(pos);
          ++stats_.misses;
          cb(std::nullopt);  // already on an event: no extra hop needed
        });
  }
  waiter_queue(route).push_back(std::move(waiter));
  stats_.peak_blocked = std::max(stats_.peak_blocked, blocked_operations());
}

void SpaceEngine::read_async(Template tmpl, sim::Time timeout,
                             MatchCallback callback) {
  blocking_match(std::move(tmpl), timeout, std::move(callback), /*take=*/false);
}

void SpaceEngine::take_async(Template tmpl, sim::Time timeout,
                             MatchCallback callback) {
  blocking_match(std::move(tmpl), timeout, std::move(callback), /*take=*/true);
}

std::uint64_t SpaceEngine::notify(Template tmpl, sim::Time lease_duration,
                                  NotifyCallback callback) {
  TB_REQUIRE(callback != nullptr);
  TB_REQUIRE(lease_duration > sim::Time::zero());
  NotifyReg reg;
  reg.id = next_id_++;
  reg.tmpl = std::move(tmpl);
  reg.callback = std::move(callback);
  if (lease_duration != kLeaseForever) {
    reg.expiry_timer =
        arm_lease_timer(sim_->now() + lease_duration, reg.id | kNotifyTimer);
  }
  const std::uint64_t id = reg.id;
  notifies_.emplace(id, std::move(reg));
  return id;
}

bool SpaceEngine::cancel_notify(std::uint64_t registration) {
  auto it = notifies_.find(registration);
  if (it == notifies_.end()) return false;
  wheel_.cancel(it->second.expiry_timer);
  notifies_.erase(it);
  return true;
}

std::optional<Lease> SpaceEngine::renew(std::uint64_t tuple_id,
                                        sim::Time extension) {
  TB_REQUIRE(extension > sim::Time::zero());
  const Hit hit = ShardEntries::find_live(stores_, tuple_id, now_ns());
  if (!hit) return std::nullopt;
  const sim::Time expires_at =
      extension == kLeaseForever ? sim::Time::max() : sim_->now() + extension;
  shards_[hit.shard].store.rearm(hit.ref, expires_at.count_ns());
  if (expires_at != sim::Time::max()) reschedule_wheel();
  ++stats_.renewals;
  return Lease{tuple_id, expires_at};
}

bool SpaceEngine::cancel(std::uint64_t tuple_id) {
  const Hit hit = ShardEntries::find_live(stores_, tuple_id, now_ns());
  if (!hit) return false;
  erase_entry(hit);
  ++stats_.cancellations;
  return true;
}

sim::TimerWheel::TimerId SpaceEngine::arm_lease_timer(sim::Time expires_at,
                                                      std::uint64_t payload) {
  const sim::TimerWheel::TimerId timer =
      wheel_.arm(expires_at.count_ns(), payload);
  reschedule_wheel();
  return timer;
}

void SpaceEngine::reschedule_wheel() {
  const std::optional<std::int64_t> next = wheel_.next_deadline();
  if (!next.has_value()) {
    sim_->cancel(wheel_event_);
    wheel_event_ = sim::EventHandle();
    wheel_armed_at_ = -1;
    return;
  }
  if (wheel_event_.valid() && sim_->is_pending(wheel_event_)) {
    if (wheel_armed_at_ <= *next) return;  // the armed event fires first
    sim_->cancel(wheel_event_);
  }
  wheel_armed_at_ = *next;
  wheel_event_ =
      sim_->schedule_at(sim::Time::ns(*next), [this] { service_wheel(); });
}

void SpaceEngine::service_wheel() {
  wheel_event_ = sim::EventHandle();
  wheel_armed_at_ = -1;
  // A wakeup at the conservative bound may fire nothing: the due slot then
  // cascades a level down and reschedule_wheel() re-arms at a tighter
  // bound, converging on the exact deadline in <= kLevels hops.
  wheel_.advance(sim_->now().count_ns(),
                 [this](std::uint64_t payload, std::int64_t /*deadline*/) {
                   expire_payload(payload);
                 });
  reschedule_wheel();
}

void SpaceEngine::expire_payload(std::uint64_t payload) {
  if (payload & kNotifyTimer) {
    notifies_.erase(payload & ~kNotifyTimer);
    return;
  }
  // Entry expiry: its deadline is now, so look it up by presence. Takes,
  // cancels and renewals all cancel the wheel timer before this can fire.
  if (const Hit hit = ShardEntries::find_live(stores_, payload, kAllVisible)) {
    ++stats_.expirations;
    erase_entry(hit);
  }
}

void SpaceEngine::bind_metrics(obs::Registry& registry,
                               const std::string& prefix) {
  match_read_ns_ = &registry.histogram(prefix + ".match_ns.read");
  match_take_ns_ = &registry.histogram(prefix + ".match_ns.take");
  registry.mirror(prefix, stats_,
                  {{".writes", &Stats::writes},
                   {".reads", &Stats::reads},
                   {".takes", &Stats::takes},
                   {".misses", &Stats::misses},
                   {".notifications", &Stats::notifications},
                   {".expirations", &Stats::expirations},
                   {".renewals", &Stats::renewals},
                   {".cancellations", &Stats::cancellations},
                   {".scan_steps", &Stats::scan_steps},
                   {".commits", &Stats::commits},
                   {".aborts", &Stats::aborts}});
  obs::Gauge& size = registry.gauge(prefix + ".size");
  obs::Gauge& stored = registry.gauge(prefix + ".stored_bytes");
  obs::Gauge& blocked = registry.gauge(prefix + ".blocked");

  // Per-shard mirrors (DESIGN.md §10): the aggregate gauges above are the
  // sum over these, so `<p>.shard0.*` equals the aggregates when
  // shard_count = 1 — the sharding cross-check tests rely on that.
  struct ShardGauges {
    obs::Gauge* size = nullptr;
    obs::Gauge* stored = nullptr;
    obs::Gauge* blocked = nullptr;
  };
  std::vector<ShardGauges> per_shard(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string p = prefix + ".shard" + std::to_string(s);
    per_shard[s].size = &registry.gauge(p + ".size");
    per_shard[s].stored = &registry.gauge(p + ".stored_bytes");
    per_shard[s].blocked = &registry.gauge(p + ".blocked");
    shards_[s].match_read_ns = &registry.histogram(p + ".match_ns.read");
    shards_[s].match_take_ns = &registry.histogram(p + ".match_ns.take");
  }
  obs::Gauge& wildcard_blocked = registry.gauge(prefix + ".wildcard_blocked");

  registry.add_collector([this, &size, &stored, &blocked, &wildcard_blocked,
                          per_shard = std::move(per_shard)] {
    size.set(static_cast<double>(this->size()));
    stored.set(static_cast<double>(stored_bytes()));
    blocked.set(static_cast<double>(blocked_operations()));
    wildcard_blocked.set(static_cast<double>(wildcard_waiters_.size()));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      per_shard[s].size->set(static_cast<double>(shard_size(s)));
      per_shard[s].stored->set(static_cast<double>(shard_stored_bytes(s)));
      per_shard[s].blocked->set(static_cast<double>(shard_blocked(s)));
    }
  });
}

}  // namespace tb::space
