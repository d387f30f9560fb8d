#include "src/space/threaded.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace tb::space {

// A request cell is a pooled slab slot (SlabPool, mpsc_ring.hpp): the
// issuing op releases it on return. The applier writes the result fields,
// then publishes a phase bit with an acq_rel fetch_or — a spinning client
// sees the bit with one acquire load and never touches the mutex; a client
// that gave up spinning sets kSleeping under `mu` before waiting, so the
// applier's fetch_or tells it (and only then) to take the lock and notify. A blocking op that missed
// gets kParked instead of kDone — the completion then arrives from
// whichever path resolves the waiter (a serving publish, a timeout
// cancellation, or shutdown). Slots are recycled, never destroyed, so an
// applier straggling into notify on a just-released cell is a benign
// spurious wakeup for the slot's next occupant.
struct ThreadedSpaceEngine::Request {
  enum class Kind : std::uint8_t {
    kWrite,
    kReadIfExists,
    kTakeIfExists,
    kReadAll,
    kTakeAll,
    kBlockingRead,
    kBlockingTake,
    kCancelWaiter,
  };

  static constexpr std::uint32_t kDone = 1;      ///< result fields final
  static constexpr std::uint32_t kParked = 2;    ///< waiter registered
  static constexpr std::uint32_t kSleeping = 4;  ///< client in cv wait

  Kind kind = Kind::kWrite;
  Tuple tuple;
  Template tmpl;
  std::uint64_t txn = kNoTxn;
  TxnState* txn_state = nullptr;
  std::size_t max = 0;
  std::uint64_t target = 0;  ///< kCancelWaiter: waiter ticket to remove
  sim::Time lease = kLeaseForever;  ///< kWrite: requested lease duration

  std::atomic<std::uint32_t> phase{0};
  std::mutex mu;
  std::condition_variable cv;
  util::SlabPool<Request>::Handle pool_handle = 0;
  std::uint64_t ticket = 0;
  std::int64_t deadline = kNoDeadline;  ///< kWrite result: steady-ns expiry
  std::optional<Tuple> result;
  std::vector<Tuple> results;

  /// Recycle reset. tuple/tmpl keep their buffers (capacity reuse is the
  /// point of the pool); producers overwrite what their op reads.
  void reset() {
    kind = Kind::kWrite;
    txn = kNoTxn;
    txn_state = nullptr;
    max = 0;
    target = 0;
    lease = kLeaseForever;
    phase.store(0, std::memory_order_relaxed);
    ticket = 0;
    deadline = kNoDeadline;
    result.reset();
    results.clear();
  }

  /// Timed park for kDone (blocking-op timeout leg). Returns false when
  /// the timeout elapsed with the bit still clear.
  bool wait_done_for(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lk(mu);
    phase.fetch_or(kSleeping, std::memory_order_acq_rel);
    const bool done = cv.wait_for(lk, timeout, [this] {
      return (phase.load(std::memory_order_acquire) & kDone) != 0;
    });
    phase.fetch_and(~kSleeping, std::memory_order_relaxed);
    return done;
  }
};

namespace {

using Kind = OpRecord::Kind;

/// Combine/completion spin budget before parking. Each failed probe
/// yields, so on a single hardware thread the budget mostly measures how
/// many scheduler handoffs we tolerate before sleeping for real.
constexpr int kSpinIters = 64;

/// Park slice for waits that also need to *drive* progress (ring space,
/// ownership words): bounded so a stale racy check costs latency, never a
/// hang — the parked thread re-probes every slice.
constexpr std::chrono::milliseconds kParkSlice{1};

/// Absolute expiry for a finite blocking-op timeout, saturating instead of
/// overflowing on huge (but not kBlockForever) values.
std::chrono::steady_clock::time_point deadline_after(
    std::chrono::nanoseconds timeout) {
  const auto now = std::chrono::steady_clock::now();
  if (timeout >= std::chrono::steady_clock::time_point::max() - now) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + timeout;
}

/// Time left until `deadline`, floored at zero (a zero-duration
/// wait_done_for checks the phase once and falls straight through to the
/// cancellation leg).
std::chrono::nanoseconds remaining_until(
    std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return std::chrono::nanoseconds::zero();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now);
}

void accumulate(SpaceEngine::Stats& into, const SpaceEngine::Stats& from) {
  into.writes += from.writes;
  into.reads += from.reads;
  into.takes += from.takes;
  into.misses += from.misses;
  into.notifications += from.notifications;
  into.expirations += from.expirations;
  into.renewals += from.renewals;
  into.cancellations += from.cancellations;
  into.scan_steps += from.scan_steps;
  into.commits += from.commits;
  into.aborts += from.aborts;
}

}  // namespace

ThreadedSpaceEngine::ThreadedSpaceEngine(SpaceConfig config, OpLog* log)
    : config_(config),
      log_(log),
      pool_(std::make_unique<util::SlabPool<Request>>()) {
  TB_REQUIRE_MSG(config_.execution_mode == ExecutionMode::kThreaded,
                 "deterministic configs belong to SpaceEngine (engine.hpp)");
  if (config_.shard_count < 1) config_.shard_count = 1;
  if (config_.inbox_capacity < 1) config_.inbox_capacity = 1;
  shards_.reserve(static_cast<std::size_t>(config_.shard_count));
  for (int s = 0; s < config_.shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.inbox_capacity,
                                              config_.use_type_index));
    stores_.push_back(&shards_.back()->store);
  }
  for (int s = 0; s < config_.shard_count; ++s) {
    shards_[static_cast<std::size_t>(s)]->worker =
        std::thread([this, s] { worker_loop(s); });
  }
}

ThreadedSpaceEngine::~ThreadedSpaceEngine() { shutdown(); }

// --- request cells ----------------------------------------------------------

ThreadedSpaceEngine::Request* ThreadedSpaceEngine::acquire_request() {
  util::SlabPool<Request>::Handle handle = 0;
  Request* req = pool_->acquire(&handle);
  req->reset();
  req->pool_handle = handle;
  return req;
}

void ThreadedSpaceEngine::release_request(Request* req) {
  pool_->release(req->pool_handle);
}

void ThreadedSpaceEngine::signal_phase(Request& req, std::uint32_t bit) {
  const std::uint32_t prev =
      req.phase.fetch_or(bit, std::memory_order_acq_rel);
  if (prev & Request::kSleeping) {
    // Notify under the lock: the sleeper may release the cell the instant
    // it observes the bit, so our last touch must be the unlock.
    std::lock_guard<std::mutex> lk(req.mu);
    req.cv.notify_all();
  }
}

void ThreadedSpaceEngine::wait_phase(int shard_idx, Request& req,
                                     std::uint32_t bits) {
  for (int spin = 0; spin < kSpinIters; ++spin) {
    if (req.phase.load(std::memory_order_acquire) & bits) return;
    // Flat combining: don't wait for the worker — drain the shard
    // ourselves (our own request included) whenever the word is free.
    if (shard_idx < 0 || !try_combine(shard_idx)) {
      std::this_thread::yield();
    }
  }
  std::unique_lock<std::mutex> lk(req.mu);
  req.phase.fetch_or(Request::kSleeping, std::memory_order_acq_rel);
  while ((req.phase.load(std::memory_order_acquire) & bits) == 0) {
    if (shard_idx < 0) {
      // Pure completion wait: the fetch_or/kSleeping protocol makes the
      // wakeup loss-proof, so an unbounded wait is safe.
      req.cv.wait(lk);
      continue;
    }
    // Waiting on our own enqueued request: park in bounded slices and keep
    // re-probing the shard, so even a missed drain hand-off only costs a
    // slice before we drain the ring ourselves.
    req.cv.wait_for(lk, kParkSlice);
    if (req.phase.load(std::memory_order_acquire) & bits) break;
    lk.unlock();
    try_combine(shard_idx);
    lk.lock();
  }
  req.phase.fetch_and(~Request::kSleeping, std::memory_order_relaxed);
}

void ThreadedSpaceEngine::push_request(int shard_idx, Request* req) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  if (!sh.ring.try_push(req)) {
    // Full ring: backpressure. The producer makes space itself by
    // draining; while the shard is owned elsewhere it wakes the worker and
    // parks.
    for (int spin = 0;; ++spin) {
      if (try_combine(shard_idx)) {
        if (sh.ring.try_push(req)) break;
        continue;
      }
      if (spin < kSpinIters) {
        std::this_thread::yield();
        if (sh.ring.try_push(req)) break;
        continue;
      }
      std::unique_lock<std::mutex> lk(sh.park_mu);
      sh.park_waiters.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      bool pushed = sh.ring.try_push(req);
      if (!pushed) {
        lk.unlock();
        wake_worker(sh);
        lk.lock();
        sh.park_cv.wait_for(lk, kParkSlice);
        pushed = sh.ring.try_push(req);
      }
      sh.park_waiters.fetch_sub(1, std::memory_order_relaxed);
      if (pushed) break;
    }
  }
  // Peak gauge: a CAS-max so concurrent producers never lose a peak
  // (non-atomic read-then-store dropped maxima). Floor 1: at the push's
  // linearization instant the ring held at least our element, even if the
  // consumer pops it before the racy size estimate runs. Cap at capacity:
  // the estimate reads head and tail unordered, so a fresh tail against a
  // stale head can overshoot what the bounded ring can actually hold.
  const std::size_t depth = std::min(
      std::max<std::size_t>(sh.ring.approx_size(), 1), sh.ring.capacity());
  std::size_t prev = sh.inbox_peak.load(std::memory_order_relaxed);
  while (depth > prev && !sh.inbox_peak.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
}

// --- ownership / drain core -------------------------------------------------

void ThreadedSpaceEngine::wake_worker(Shard& sh) {
  if (!sh.worker_asleep.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lk(sh.park_mu);
  sh.park_cv.notify_all();
}

void ThreadedSpaceEngine::release_own(Shard& sh) {
  const std::int64_t prev_next =
      sh.wheel_next.load(std::memory_order_relaxed);
  const std::optional<std::int64_t> next = sh.wheel.next_deadline();
  const std::int64_t wn = next.has_value() ? *next : -1;
  // Publish the wheel horizon before the word: the next owner (or the
  // sleeping worker planning its wait) reads it without owning the wheel.
  sh.wheel_next.store(wn, std::memory_order_relaxed);
  sh.owner.store(0, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sh.park_waiters.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lk(sh.park_mu);
    sh.park_cv.notify_all();
  }
  // Backlog we didn't finish (handoff interrupt, or a push that landed
  // after the final empty pop) or a deadline now earlier than the one the
  // worker planned its sleep around: the worker takes over.
  if (!sh.ring.approx_empty() ||
      (wn >= 0 && (prev_next < 0 || wn < prev_next))) {
    wake_worker(sh);
  }
}

std::size_t ThreadedSpaceEngine::drain(int shard_idx, FireBatch* fire) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  // Due lease timers are reclaimed before queued work: the expiry draws
  // its ticket ahead of requests that arrived while it was overdue,
  // matching what a hardware timer interrupt would do.
  service_shard_wheel(shard_idx);
  std::size_t applied = 0;
  Request* req = nullptr;
  // Batch-drain: every queued request applies under this one ownership
  // acquisition. A coordinator's handoff flag is the drain boundary — the
  // sequence point wildcard ops snapshot at.
  while (!sh.handoff_req.load(std::memory_order_acquire) &&
         sh.ring.try_pop(req)) {
    apply(shard_idx, *req, fire);
    ++applied;
  }
  return applied;
}

bool ThreadedSpaceEngine::try_combine(int shard_idx) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  if (sh.handoff_req.load(std::memory_order_acquire)) return false;
  if (!try_own(sh)) return false;
  FireBatch fire;
  drain(shard_idx, &fire);
  release_own(sh);
  fire_collected(std::move(fire));
  return true;
}

void ThreadedSpaceEngine::worker_loop(int shard_idx) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  for (;;) {
    if (sh.stop.load(std::memory_order_acquire)) {
      // Exit only once the ring is drained: the timeout leg of a blocking
      // op may still have a kCancelWaiter queued. A combiner/coordinator
      // holding the word drains or returns it; shutdown guarantees no new
      // pushes.
      if (!sh.handoff_req.load(std::memory_order_acquire) && try_own(sh)) {
        FireBatch fire;
        drain(shard_idx, &fire);
        const bool empty = sh.ring.approx_empty();
        release_own(sh);
        fire_collected(std::move(fire));
        if (empty) return;
      } else if (sh.ring.approx_empty()) {
        return;
      } else {
        std::this_thread::yield();
      }
      continue;
    }

    if (!sh.handoff_req.load(std::memory_order_acquire) && try_own(sh)) {
      FireBatch fire;
      const std::size_t applied = drain(shard_idx, &fire);
      const bool backlog = !sh.ring.approx_empty();
      release_own(sh);
      fire_collected(std::move(fire));
      if (applied > 0 || backlog) continue;
    }

    // Idle (or the shard is owned elsewhere — its owner drains, and
    // release_own wakes us if anything is left). Dekker sleep: advertise,
    // fence, re-check every wake condition, then wait bounded by the
    // published wheel horizon. A backlog is work for this worker only
    // while the word is free: going round again while another thread owns
    // the shard would spin a CPU against it.
    std::unique_lock<std::mutex> lk(sh.park_mu);
    sh.worker_asleep.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t wn = sh.wheel_next.load(std::memory_order_relaxed);
    const bool handoff = sh.handoff_req.load(std::memory_order_relaxed);
    const bool backlog = !sh.ring.approx_empty() &&
                         sh.owner.load(std::memory_order_relaxed) == 0;
    if (sh.stop.load(std::memory_order_relaxed) || (!handoff && backlog) ||
        (!handoff && wn >= 0 && wn <= steady_now_ns())) {
      sh.worker_asleep.store(false, std::memory_order_relaxed);
      continue;
    }
    if (wn >= 0) {
      sh.park_cv.wait_until(lk, epoch_ + std::chrono::nanoseconds(wn));
    } else {
      sh.park_cv.wait(lk);
    }
    sh.worker_asleep.store(false, std::memory_order_relaxed);
  }
}

std::int64_t ThreadedSpaceEngine::steady_now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ThreadedSpaceEngine::service_shard_wheel(int shard_idx) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  // Collect first: erase_entry cancels the (already freed) wheel node,
  // which is a stale-id no-op, and must not run inside advance().
  std::vector<std::uint64_t> due;
  sh.wheel.advance(steady_now_ns(),
                   [&due](std::uint64_t payload, std::int64_t /*deadline*/) {
                     due.push_back(payload);
                   });
  for (const std::uint64_t id : due) {
    const SlotRef ref = sh.store.find(id);
    if (ref == kNoSlot) continue;  // defensive: cancels are exact
    // The reclamation *is* the expiry's linearization point: visibility in
    // threaded mode is presence, and the replay pre-pass arms the oracle
    // with exactly this ticket-space duration (oplog.hpp).
    const std::uint64_t ticket = next_ticket();
    record(ticket, Kind::kLeaseExpire,
           [&](OpRecord& rec) { rec.target = id; });
    ++sh.stats.expirations;
    erase_entry({shard_idx, ref});
  }
}

void ThreadedSpaceEngine::apply(int shard_idx, Request& req,
                                FireBatch* fire) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  sh.ops_applied.fetch_add(1, std::memory_order_relaxed);
  switch (req.kind) {
    case Request::Kind::kWrite:
      apply_write(shard_idx, req, fire);
      return;
    case Request::Kind::kReadIfExists:
    case Request::Kind::kTakeIfExists: {
      const bool take = req.kind == Request::Kind::kTakeIfExists;
      req.ticket = next_ticket();
      req.result = match_one(req.tmpl, req.txn_state, take, sh.stats);
      log_result(req.ticket, take ? Kind::kTakeIfExists : Kind::kReadIfExists,
                 req.txn, req.tmpl, req.result);
      signal_phase(req, Request::kDone);
      return;
    }
    case Request::Kind::kReadAll:
    case Request::Kind::kTakeAll:
      req.ticket = next_ticket();
      req.results = match_bulk(req.ticket, req.tmpl, req.max,
                               req.kind == Request::Kind::kTakeAll, sh.stats);
      signal_phase(req, Request::kDone);
      return;
    case Request::Kind::kBlockingRead:
      apply_blocking(shard_idx, req, /*take=*/false);
      return;
    case Request::Kind::kBlockingTake:
      apply_blocking(shard_idx, req, /*take=*/true);
      return;
    case Request::Kind::kCancelWaiter:
      apply_cancel_waiter(shard_idx, req);
      return;
  }
}

// --- write ------------------------------------------------------------------

void ThreadedSpaceEngine::apply_write(int shard_idx, Request& req,
                                      FireBatch* fire) {
  Tuple tuple = std::move(req.tuple);
  // The deadline counts from the linearization point (the apply), not from
  // the client's enqueue — transit through a backlogged inbox eats into
  // nothing; the lease starts when the write becomes visible.
  const std::int64_t deadline = req.lease == kLeaseForever
                                    ? kNoDeadline
                                    : steady_now_ns() + req.lease.count_ns();

  // Slow path: wildcard waiters or notify registrations may exist, so the
  // whole linearization (ticket, notify collection, waiter merge) runs
  // under cross_mu_ — interacting publishes serialize in ticket order.
  // Fast path: no cross-shard state can appear mid-apply (registrations
  // run under the all-shard acquisition), so this write commutes with
  // everything it races and a racy ticket is a valid linearization point.
  const bool cross = cross_possible();
  std::unique_lock<std::mutex> cl(cross_mu_, std::defer_lock);
  if (cross) cl.lock();
  const std::uint64_t id = next_ticket();
  if (cross) collect_notifications(tuple, fire);
  record(id, Kind::kWrite, [&](OpRecord& rec) { rec.tuple = tuple; });
  publish(id, std::move(tuple), cross, deadline);
  if (cross) cl.unlock();
  ++shards_[static_cast<std::size_t>(shard_idx)]->stats.writes;

  req.ticket = id;
  req.deadline = deadline;
  signal_phase(req, Request::kDone);
}

void ThreadedSpaceEngine::publish(std::uint64_t id, Tuple tuple,
                                  bool cross_locked, std::int64_t deadline) {
  const std::uint64_t key = type_key(tuple.name, tuple.arity());
  Shard& sh = *shards_[static_cast<std::size_t>(shard_of(key))];
  const bool consumed = sh.store.publish(
      id, key, std::move(tuple), deadline,
      cross_locked ? &wildcard_waiters_ : nullptr,
      [this, &sh](Waiter waiter, bool from_wildcard, Tuple served) {
        if (from_wildcard) {
          cross_count_.fetch_sub(1);
          cross_serves_.fetch_add(1, std::memory_order_relaxed);
        }
        blocked_count_.fetch_sub(1, std::memory_order_relaxed);
        Stats& stats = from_wildcard ? cross_stats_ : sh.stats;
        ++(waiter.take ? stats.takes : stats.reads);
        complete_waiter(waiter, std::move(served));
      });
  if (consumed) return;
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  note_peak_size();
}

Tuple ThreadedSpaceEngine::erase_entry(Hit hit) {
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  return shards_[static_cast<std::size_t>(hit.shard)]->store.erase(hit.ref);
}

Tuple ThreadedSpaceEngine::consume(Hit hit, bool take, Stats& stats) {
  ++(take ? stats.takes : stats.reads);
  return take ? erase_entry(hit) : hit.slot->entry.tuple;
}

Lease ThreadedSpaceEngine::write(Tuple tuple, std::uint64_t txn) {
  return write(std::move(tuple), kLeaseForever, txn);
}

Lease ThreadedSpaceEngine::write(Tuple tuple, sim::Time lease_duration,
                                 std::uint64_t txn) {
  TB_REQUIRE(lease_duration > sim::Time::zero());
  if (txn != kNoTxn) {
    TB_REQUIRE_MSG(lease_duration == kLeaseForever,
                   "transactional writes keep forever leases in threaded "
                   "mode (commit publication does not re-arm)");
    // Transaction-private: invisible to every other client until commit, so
    // the ticket may race freely — the op commutes with everything outside
    // its (single-owner) transaction.
    TxnState* state = find_txn(txn);
    const std::uint64_t ticket = next_ticket();
    record(ticket, Kind::kWrite, [&](OpRecord& rec) {
      rec.txn = txn;
      rec.tuple = tuple;
    });
    state->writes.emplace_back(ticket, std::move(tuple));
    return Lease{ticket, sim::Time::max()};
  }
  Request* req = acquire_request();
  req->kind = Request::Kind::kWrite;
  req->tuple = std::move(tuple);
  req->lease = lease_duration;
  const int shard_idx = shard_of(type_key(req->tuple.name, req->tuple.arity()));
  push_request(shard_idx, req);
  wait_phase(shard_idx, *req, Request::kDone);
  const Lease out{req->ticket, sim::Time::ns(req->deadline)};
  release_request(req);
  return out;
}

// --- matching ---------------------------------------------------------------

std::optional<Tuple> ThreadedSpaceEngine::match_one(const Template& tmpl,
                                                    TxnState* txn, bool take,
                                                    Stats& stats) {
  std::optional<Tuple> result;
  if (const Hit hit =
          Scan(stores_, tmpl, kAllVisible, &stats.scan_steps).next()) {
    if (take && txn != nullptr) {
      txn->held.emplace_back(hit.slot->id, hit.slot->entry.tuple);
    }
    result = consume(hit, take, stats);
  } else if (txn != nullptr) {
    // The transaction sees (and may un-write) its own provisional writes.
    auto& writes = txn->writes;
    const auto pending =
        std::find_if(writes.begin(), writes.end(),
                     [&](const auto& w) { return tmpl.matches(w.second); });
    if (pending != writes.end()) {
      ++(take ? stats.takes : stats.reads);
      if (take) {
        result = std::move(pending->second);
        writes.erase(pending);
      } else {
        result = pending->second;
      }
    }
  }
  if (!result.has_value()) ++stats.misses;
  return result;
}

std::vector<Tuple> ThreadedSpaceEngine::match_bulk(std::uint64_t ticket,
                                                   const Template& tmpl,
                                                   std::size_t max, bool take,
                                                   Stats& stats) {
  std::vector<Tuple> out = ShardEntries::bulk(stores_, tmpl, kAllVisible, max,
                                              take, &stats.scan_steps);
  (take ? stats.takes : stats.reads) += out.size();
  if (take) entry_count_.fetch_sub(out.size(), std::memory_order_relaxed);
  record(ticket, take ? Kind::kTakeAll : Kind::kReadAll, [&](OpRecord& rec) {
    OpRecord::Match& m = rec.match();
    m.tmpl = tmpl;
    m.max = max;
    m.results = out;
  });
  return out;
}

void ThreadedSpaceEngine::log_result(std::uint64_t ticket, OpRecord::Kind kind,
                                     std::uint64_t txn, const Template& tmpl,
                                     const std::optional<Tuple>& result) {
  record(ticket, kind, [&](OpRecord& rec) {
    rec.txn = txn;
    OpRecord::Match& m = rec.match();
    m.tmpl = tmpl;
    m.result = result;
  });
}

std::optional<Tuple> ThreadedSpaceEngine::read_if_exists(const Template& tmpl,
                                                         std::uint64_t txn) {
  return if_exists(tmpl, txn, /*take=*/false);
}

std::optional<Tuple> ThreadedSpaceEngine::take_if_exists(const Template& tmpl,
                                                         std::uint64_t txn) {
  return if_exists(tmpl, txn, /*take=*/true);
}

std::vector<Tuple> ThreadedSpaceEngine::read_all(const Template& tmpl,
                                                 std::size_t max) {
  return bulk(tmpl, max, /*take=*/false);
}

std::vector<Tuple> ThreadedSpaceEngine::take_all(const Template& tmpl,
                                                 std::size_t max) {
  return bulk(tmpl, max, /*take=*/true);
}

std::optional<Tuple> ThreadedSpaceEngine::if_exists(const Template& tmpl,
                                                    std::uint64_t txn,
                                                    bool take) {
  TxnState* state = find_txn(txn);
  if (!tmpl.name.has_value()) {
    // Wildcard: an all-shard sequence-point op.
    barrier_acquire();
    const std::uint64_t ticket = next_ticket();
    std::optional<Tuple> result = match_one(tmpl, state, take, barrier_stats_);
    log_result(ticket, take ? Kind::kTakeIfExists : Kind::kReadIfExists, txn,
               tmpl, result);
    barrier_release();
    return result;
  }
  Request* req = acquire_request();
  req->kind =
      take ? Request::Kind::kTakeIfExists : Request::Kind::kReadIfExists;
  req->tmpl = tmpl;
  req->txn = txn;
  req->txn_state = state;
  const int shard_idx = shard_of(type_key(*tmpl.name, tmpl.arity()));
  push_request(shard_idx, req);
  wait_phase(shard_idx, *req, Request::kDone);
  auto out = std::move(req->result);
  release_request(req);
  return out;
}

std::vector<Tuple> ThreadedSpaceEngine::bulk(const Template& tmpl,
                                             std::size_t max, bool take) {
  if (!tmpl.name.has_value()) {
    barrier_acquire();
    std::vector<Tuple> out =
        match_bulk(next_ticket(), tmpl, max, take, barrier_stats_);
    barrier_release();
    return out;
  }
  Request* req = acquire_request();
  req->kind = take ? Request::Kind::kTakeAll : Request::Kind::kReadAll;
  req->tmpl = tmpl;
  req->max = max;
  const int shard_idx = shard_of(type_key(*tmpl.name, tmpl.arity()));
  push_request(shard_idx, req);
  wait_phase(shard_idx, *req, Request::kDone);
  auto out = std::move(req->results);
  release_request(req);
  return out;
}

// --- blocking ops -----------------------------------------------------------

void ThreadedSpaceEngine::apply_blocking(int shard_idx, Request& req,
                                         bool take) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  const std::uint64_t ticket = next_ticket();
  req.ticket = ticket;
  if (const Hit hit =
          Scan(stores_, req.tmpl, kAllVisible, &sh.stats.scan_steps).next()) {
    req.result = consume(hit, take, sh.stats);
    log_result(ticket, take ? Kind::kBlockingTake : Kind::kBlockingRead,
               kNoTxn, req.tmpl, req.result);
    signal_phase(req, Request::kDone);
    return;
  }
  // Park. The record is written by whoever resolves the waiter: a serving
  // publish (complete_waiter) or a cancellation (cancel_waiter).
  Waiter waiter;
  waiter.id = ticket;
  waiter.tmpl = req.tmpl;
  waiter.take = take;
  waiter.payload = &req;
  sh.store.waiters().push_back(std::move(waiter));
  blocked_count_.fetch_add(1, std::memory_order_relaxed);
  note_peak_blocked();
  signal_phase(req, Request::kParked);
}

void ThreadedSpaceEngine::apply_cancel_waiter(int shard_idx, Request& req) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  Store::Waiters& waiters = sh.store.waiters();
  const auto pos =
      std::find_if(waiters.begin(), waiters.end(),
                   [&](const Waiter& w) { return w.id == req.target; });
  if (pos != waiters.end()) {
    const Waiter waiter = std::move(*pos);
    waiters.erase(pos);
    cancel_waiter(waiter, sh.stats);
  }
  // Not found: a publish served the waiter concurrently with the timeout;
  // the serve's completion wins and the cancel is a no-op.
  signal_phase(req, Request::kDone);
}

void ThreadedSpaceEngine::complete_waiter(const Waiter& waiter, Tuple tuple) {
  log_result(waiter.id, waiter.take ? Kind::kBlockingTake : Kind::kBlockingRead,
             kNoTxn, waiter.tmpl, tuple);
  waiter.payload->result = std::move(tuple);
  signal_phase(*waiter.payload, Request::kDone);
}

void ThreadedSpaceEngine::cancel_waiter(const Waiter& waiter, Stats& stats) {
  const std::uint64_t cancel_ticket = next_ticket();
  const Kind kind = waiter.take ? Kind::kBlockingTake : Kind::kBlockingRead;
  record(waiter.id, kind, [&](OpRecord& rec) {
    OpRecord::Match& m = rec.match();
    m.tmpl = waiter.tmpl;
    m.timed_out = true;
    m.cancel_ticket = cancel_ticket;
  });
  blocked_count_.fetch_sub(1, std::memory_order_relaxed);
  ++stats.misses;
  waiter.payload->result = std::nullopt;
  signal_phase(*waiter.payload, Request::kDone);
}

std::optional<Tuple> ThreadedSpaceEngine::blocking_op(
    const Template& tmpl, std::chrono::nanoseconds timeout, bool take) {
  // The timeout clock starts here: full-ring backpressure, inbox transit
  // and (for wildcards) the all-shard acquisition all spend the caller's
  // budget, so take(tmpl, 10ms) behind a backlogged shard cancels as soon
  // as it parks rather than waiting a further 10ms.
  const auto deadline = timeout == kBlockForever
                            ? std::chrono::steady_clock::time_point::max()
                            : deadline_after(timeout);
  Request* req = acquire_request();
  req->kind =
      take ? Request::Kind::kBlockingTake : Request::Kind::kBlockingRead;
  req->tmpl = tmpl;

  if (tmpl.name.has_value()) {
    const int shard_idx = shard_of(type_key(*tmpl.name, tmpl.arity()));
    push_request(shard_idx, req);
    wait_phase(shard_idx, *req, Request::kDone | Request::kParked);
    if ((req->phase.load(std::memory_order_acquire) & Request::kDone) == 0) {
      // Parked: our waiter is registered (ticket published with kParked).
      if (timeout == kBlockForever) {
        wait_phase(-1, *req, Request::kDone);
      } else if (!req->wait_done_for(remaining_until(deadline))) {
        // Timed out: ask the shard to cancel. Either the cancel finds the
        // waiter (completes it with nullopt + a cancel ticket) or a
        // concurrent publish already served it — wait for whichever
        // completion lands.
        Request* cancel = acquire_request();
        cancel->kind = Request::Kind::kCancelWaiter;
        cancel->target = req->ticket;
        push_request(shard_idx, cancel);
        wait_phase(shard_idx, *cancel, Request::kDone);
        release_request(cancel);
        wait_phase(-1, *req, Request::kDone);
      }
    }
    auto out = std::move(req->result);
    release_request(req);
    return out;
  }

  // Wildcard: registration is an all-shard op (the queue is cross-shard
  // state every publish must observe), parking/cancellation run under
  // cross_mu_.
  barrier_acquire();
  const std::uint64_t ticket = next_ticket();
  if (const Hit hit =
          Scan(stores_, tmpl, kAllVisible, &barrier_stats_.scan_steps).next()) {
    std::optional<Tuple> result = consume(hit, take, barrier_stats_);
    log_result(ticket, take ? Kind::kBlockingTake : Kind::kBlockingRead,
               kNoTxn, tmpl, result);
    barrier_release();
    release_request(req);
    return result;
  }
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    Waiter waiter;
    waiter.id = ticket;
    waiter.tmpl = tmpl;
    waiter.take = take;
    waiter.payload = req;
    wildcard_waiters_.push_back(std::move(waiter));
    cross_count_.fetch_add(1);
    blocked_count_.fetch_add(1, std::memory_order_relaxed);
    note_peak_blocked();
  }
  barrier_release();

  if (timeout == kBlockForever) {
    wait_phase(-1, *req, Request::kDone);
  } else if (!req->wait_done_for(remaining_until(deadline))) {
    {
      std::lock_guard<std::mutex> cl(cross_mu_);
      const auto pos = std::find_if(
          wildcard_waiters_.begin(), wildcard_waiters_.end(),
          [&](const Waiter& w) { return w.id == ticket; });
      if (pos != wildcard_waiters_.end()) {
        // Still parked — no publish can be serving it (we hold cross_mu_).
        // Ticket before the count decrement: a publisher that fast-paths on
        // the decremented count is ordered after this cancellation.
        const Waiter waiter = std::move(*pos);
        wildcard_waiters_.erase(pos);
        cancel_waiter(waiter, cross_stats_);
        cross_count_.fetch_sub(1);
      }
    }
    wait_phase(-1, *req, Request::kDone);
  }
  auto out = std::move(req->result);
  release_request(req);
  return out;
}

std::optional<Tuple> ThreadedSpaceEngine::read(
    const Template& tmpl, std::chrono::nanoseconds timeout) {
  return blocking_op(tmpl, timeout, /*take=*/false);
}

std::optional<Tuple> ThreadedSpaceEngine::take(
    const Template& tmpl, std::chrono::nanoseconds timeout) {
  return blocking_op(tmpl, timeout, /*take=*/true);
}

// --- transactions -----------------------------------------------------------

ThreadedSpaceEngine::TxnState* ThreadedSpaceEngine::find_txn(
    std::uint64_t txn) {
  if (txn == kNoTxn) return nullptr;
  std::lock_guard<std::mutex> lk(txn_mu_);
  const auto it = txns_.find(txn);
  TB_REQUIRE_MSG(it != txns_.end(), "unknown transaction");
  return it->second.get();
}

std::uint64_t ThreadedSpaceEngine::begin_transaction() {
  const std::uint64_t ticket = next_ticket();
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    txns_.emplace(ticket, std::make_unique<TxnState>());
  }
  record(ticket, Kind::kBeginTxn, [](OpRecord&) {});
  return ticket;
}

bool ThreadedSpaceEngine::commit(std::uint64_t txn) {
  barrier_acquire();
  std::unique_ptr<TxnState> state;
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    const auto it = txns_.find(txn);
    if (it != txns_.end()) {
      state = std::move(it->second);
      txns_.erase(it);
    }
  }
  const bool ok = state != nullptr;
  FireBatch fire;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    const std::uint64_t ticket = next_ticket();
    if (ok) {
      ++barrier_stats_.commits;
      // Publication order = write order = ascending tickets; each entry
      // keeps its write ticket as id, so it sorts into the total order at
      // the instant the write was issued — exactly the oracle's rule.
      for (auto& [write_id, tuple] : state->writes) {
        ++barrier_stats_.writes;
        collect_notifications(tuple, &fire);
        publish(write_id, std::move(tuple), /*cross_locked=*/true, kNoDeadline);
      }
      // Held takes become permanent: nothing to restore.
    }
    record(ticket, Kind::kCommit, [&](OpRecord& rec) {
      rec.txn = txn;
      rec.ok = ok;
    });
  }
  barrier_release();
  fire_collected(std::move(fire));
  return ok;
}

bool ThreadedSpaceEngine::abort(std::uint64_t txn) {
  barrier_acquire();
  std::unique_ptr<TxnState> state;
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    const auto it = txns_.find(txn);
    if (it != txns_.end()) {
      state = std::move(it->second);
      txns_.erase(it);
    }
  }
  const bool ok = state != nullptr;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    const std::uint64_t ticket = next_ticket();
    if (ok) {
      ++barrier_stats_.aborts;
      // Restore held entries under their original ids — back into the total
      // order where they were taken from. No notifications: their writes
      // were announced when first published. Blocked ops do get served.
      // A held finite-lease entry's timer was cancelled at take time, so
      // the restore is forever — mirrored exactly by the replay pre-pass:
      // no kLeaseExpire record ever terminates that write's arming.
      for (auto& [id, tuple] : state->held) {
        publish(id, std::move(tuple), /*cross_locked=*/true, kNoDeadline);
      }
    }
    record(ticket, Kind::kAbort, [&](OpRecord& rec) {
      rec.txn = txn;
      rec.ok = ok;
    });
  }
  barrier_release();
  return ok;
}

// --- notify -----------------------------------------------------------------

void ThreadedSpaceEngine::collect_notifications(const Tuple& tuple,
                                                FireBatch* fire) {
  for (auto& [id, reg] : notifies_) {
    if (reg.tmpl.matches(tuple)) {
      ++cross_stats_.notifications;
      fire->emplace_back(reg.callback, tuple);
    }
  }
}

void ThreadedSpaceEngine::fire_collected(FireBatch fire) {
  for (auto& [callback, tuple] : fire) {
    callback(tuple);
  }
}

std::uint64_t ThreadedSpaceEngine::notify(Template tmpl,
                                          NotifyCallback callback) {
  TB_REQUIRE(callback != nullptr);
  // All-shard acquisition, not just cross_mu_: creating cross-shard state
  // must not race an in-flight fast-path publish that already read
  // cross_count_ == 0.
  barrier_acquire();
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    ticket = next_ticket();
    notifies_.emplace(ticket, NotifyReg{tmpl, std::move(callback)});
    cross_count_.fetch_add(1);
    record(ticket, Kind::kNotifyReg,
           [&](OpRecord& rec) { rec.match().tmpl = std::move(tmpl); });
  }
  barrier_release();
  return ticket;
}

bool ThreadedSpaceEngine::cancel_notify(std::uint64_t registration) {
  // Removal needs no shard acquisition: the ticket is drawn before the
  // count decrement, so a publisher fast-pathing on the lowered count is
  // ordered after the cancellation — it correctly skips the dead
  // registration.
  std::lock_guard<std::mutex> cl(cross_mu_);
  const std::uint64_t ticket = next_ticket();
  const auto it = notifies_.find(registration);
  const bool ok = it != notifies_.end();
  if (ok) {
    notifies_.erase(it);
    cross_count_.fetch_sub(1);
  }
  record(ticket, Kind::kNotifyCancel, [&](OpRecord& rec) {
    rec.target = registration;
    rec.ok = ok;
  });
  return ok;
}


// --- leases -----------------------------------------------------------------

std::optional<Lease> ThreadedSpaceEngine::renew(std::uint64_t tuple_id,
                                                sim::Time extension) {
  TB_REQUIRE(extension > sim::Time::zero());
  // All shards: ids do not encode their shard, and only an atomic search
  // across all of them gives the recorded hit/miss one exact linearization
  // ticket (see the header comment for the probe-protocol pitfall).
  barrier_acquire();
  const std::uint64_t ticket = next_ticket();
  std::optional<Lease> out;
  if (const Hit hit = ShardEntries::find_live(stores_, tuple_id, kAllVisible)) {
    const std::int64_t deadline = extension == kLeaseForever
                                      ? kNoDeadline
                                      : steady_now_ns() + extension.count_ns();
    shards_[static_cast<std::size_t>(hit.shard)]->store.rearm(hit.ref,
                                                              deadline);
    ++barrier_stats_.renewals;
    out = Lease{tuple_id, sim::Time::ns(deadline)};
  }
  record(ticket, Kind::kRenew, [&](OpRecord& rec) {
    rec.target = tuple_id;
    rec.ok = out.has_value();
  });
  barrier_release();
  return out;
}

bool ThreadedSpaceEngine::cancel(std::uint64_t tuple_id) {
  barrier_acquire();
  const std::uint64_t ticket = next_ticket();
  const Hit hit = ShardEntries::find_live(stores_, tuple_id, kAllVisible);
  const bool ok = static_cast<bool>(hit);
  if (ok) {
    erase_entry(hit);
    ++barrier_stats_.cancellations;
  }
  record(ticket, Kind::kCancelLease, [&](OpRecord& rec) {
    rec.target = tuple_id;
    rec.ok = ok;
  });
  barrier_release();
  return ok;
}

// --- all-shard acquisition (sequence points) --------------------------------

void ThreadedSpaceEngine::barrier_acquire() {
  barrier_mu_.lock();
  {
    // After shutdown the workers are joined: barrier_mu_ alone is exclusive
    // access, which is what lets snapshot()/stats() read the final state.
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    if (shut_down_) {
      barrier_owns_shards_ = false;
      barriers_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  barrier_owns_shards_ = true;
  own_all_shards();
  barriers_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedSpaceEngine::barrier_release() {
  if (barrier_owns_shards_) {
    disown_all_shards();
    barrier_owns_shards_ = false;
  }
  barrier_mu_.unlock();
}

void ThreadedSpaceEngine::own_all_shards() {
  // Index-order CAS sweep over the ownership words. handoff_req makes the
  // current owner yield at its next request boundary (the sequence point)
  // and stops new combiners/workers from outracing us; on an idle shard
  // the acquisition is one CAS — no worker wakeup, no rendezvous.
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    sh.handoff_req.store(true, std::memory_order_seq_cst);
    for (int spin = 0;; ++spin) {
      if (try_own(sh)) break;
      if (spin < kSpinIters) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lk(sh.park_mu);
      sh.park_waiters.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const bool owned = try_own(sh);
      if (!owned) sh.park_cv.wait_for(lk, kParkSlice);
      sh.park_waiters.fetch_sub(1, std::memory_order_relaxed);
      if (owned) break;
    }
  }
}

void ThreadedSpaceEngine::disown_all_shards() {
  for (auto& shp : shards_) {
    shp->handoff_req.store(false, std::memory_order_seq_cst);
    release_own(*shp);
  }
}

// --- introspection ----------------------------------------------------------

std::vector<Tuple> ThreadedSpaceEngine::snapshot() {
  barrier_acquire();
  const std::uint64_t ticket = next_ticket();
  std::vector<Tuple> out;
  out.reserve(entry_count_.load(std::memory_order_relaxed));
  {
    // Scoped: the Scan must end before the shards are released.
    Scan scan(stores_, kAllVisible);
    while (const Hit hit = scan.next()) out.push_back(hit.slot->entry.tuple);
  }
  // The cut is itself a linearized op: the replay rebuilds the oracle's
  // space at this ticket and compares cuts, so mid-run consistency is
  // checked, not just the final state.
  record(ticket, Kind::kSnapshot,
         [&](OpRecord& rec) { rec.match().results = out; });
  barrier_release();
  return out;
}

ThreadedSpaceEngine::Stats ThreadedSpaceEngine::stats() {
  barrier_acquire();
  Stats total = barrier_stats_;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    accumulate(total, cross_stats_);
  }
  for (auto& sh : shards_) accumulate(total, sh->stats);
  total.peak_size = peak_size_.load(std::memory_order_relaxed);
  total.peak_blocked = peak_blocked_.load(std::memory_order_relaxed);
  barrier_release();
  return total;
}

void ThreadedSpaceEngine::note_peak_size() {
  const std::size_t cur = entry_count_.load(std::memory_order_relaxed);
  std::size_t prev = peak_size_.load(std::memory_order_relaxed);
  while (cur > prev &&
         !peak_size_.compare_exchange_weak(prev, cur,
                                           std::memory_order_relaxed)) {
  }
}

void ThreadedSpaceEngine::note_peak_blocked() {
  const std::size_t cur = blocked_count_.load(std::memory_order_relaxed);
  std::size_t prev = peak_blocked_.load(std::memory_order_relaxed);
  while (cur > prev &&
         !peak_blocked_.compare_exchange_weak(prev, cur,
                                              std::memory_order_relaxed)) {
  }
}

void ThreadedSpaceEngine::bind_metrics(obs::Registry& registry,
                                       const std::string& prefix) {
  struct ShardMetrics {
    obs::Gauge* depth = nullptr;
    obs::Gauge* peak = nullptr;
    obs::Counter* applied = nullptr;
  };
  std::vector<ShardMetrics> per_shard(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string p = prefix + ".shard" + std::to_string(s);
    per_shard[s].depth = &registry.gauge(p + ".inbox_depth");
    per_shard[s].peak = &registry.gauge(p + ".inbox_peak");
    per_shard[s].applied = &registry.counter(p + ".ops_applied");
  }
  obs::Gauge& size = registry.gauge(prefix + ".size");
  obs::Gauge& blocked = registry.gauge(prefix + ".blocked");
  obs::Counter& barriers = registry.counter(prefix + ".barriers");
  obs::Counter& cross_serves =
      registry.counter(prefix + ".cross_queue_serves");

  // Everything the collector touches is an atomic (the ring's depth is its
  // racy head/tail estimate), so a metrics snapshot never contends with an
  // owner — no shard acquisition, no cross_mu_.
  registry.add_collector([this, &size, &blocked, &barriers, &cross_serves,
                          per_shard = std::move(per_shard)] {
    size.set(static_cast<double>(entry_count_.load(std::memory_order_relaxed)));
    blocked.set(
        static_cast<double>(blocked_count_.load(std::memory_order_relaxed)));
    barriers.set(barriers_.load(std::memory_order_relaxed));
    cross_serves.set(cross_serves_.load(std::memory_order_relaxed));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      per_shard[s].depth->set(
          static_cast<double>(shards_[s]->ring.approx_size()));
      per_shard[s].peak->set(static_cast<double>(
          shards_[s]->inbox_peak.load(std::memory_order_relaxed)));
      per_shard[s].applied->set(
          shards_[s]->ops_applied.load(std::memory_order_relaxed));
    }
  });
}

// --- shutdown & test hooks --------------------------------------------------

void ThreadedSpaceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (auto& sh : shards_) {
    sh->stop.store(true, std::memory_order_seq_cst);
    std::lock_guard<std::mutex> lk(sh->park_mu);
    sh->park_cv.notify_all();
  }
  for (auto& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
  // Workers are gone: complete every parked blocking op with nullopt,
  // logged exactly like a timeout so the oracle replay cancels them at the
  // same instant.
  auto cancel_all = [this](Store::Waiters& queue, Stats& stats) {
    for (const Waiter& waiter : queue) cancel_waiter(waiter, stats);
    queue.clear();
  };
  // Joined workers don't make the shard words free-for-all: the timeout
  // leg of a pre-shutdown blocking op pushes a kCancelWaiter and
  // flat-combines the shard itself, mutating the same waiter list. Hold
  // every ownership word (handoff_req backs the straggler off) across the
  // cancellation; the straggling cancel then serializes behind us and
  // finds its waiter already completed — a logged no-op, never a double
  // signal on a recycled request cell.
  own_all_shards();
  for (auto& sh : shards_) cancel_all(sh->store.waiters(), sh->stats);
  disown_all_shards();
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    cross_count_.fetch_sub(wildcard_waiters_.size());
    cancel_all(wildcard_waiters_, cross_stats_);
  }
}

void ThreadedSpaceEngine::stall_shard_for_testing(int shard) {
  Shard& sh = *shards_.at(static_cast<std::size_t>(shard));
  while (!try_own(sh)) std::this_thread::yield();
}

void ThreadedSpaceEngine::resume_shard_for_testing(int shard) {
  release_own(*shards_.at(static_cast<std::size_t>(shard)));
}

}  // namespace tb::space
