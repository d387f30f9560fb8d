// Real-thread concurrent tuplespace runtime (DESIGN.md §11, hot path §15).
//
// Shard state (its ShardStore — the entry map, type index and named-waiter
// queue SpaceEngine shares, shard_store.hpp — plus stats and the lease
// wheel) is touched only while holding the shard's atomic *ownership word*
// — a one-word CAS lock that replaces the actor mailbox handshake. Named
// operations enqueue a pooled request cell into the shard's bounded MPSC
// ring (util/mpsc_ring.hpp) and then whoever owns the shard batch-drains
// the ring: normally the *issuing client itself* CASes the free ownership
// word and drains inline (flat combining — the common named op completes
// with zero context switches, zero syscalls and zero heap allocations), and
// the shard's worker thread picks up whatever backlog is left and due lease
// timers. Producers facing a full ring and clients awaiting completion both
// spin-then-park; every park/wake pair uses a store-fence-check (Dekker)
// protocol so a wakeup is never lost (DESIGN.md §15, "Fences").
//
// Wildcard operations, transaction resolution, snapshots and notify
// registration acquire *all* shard ownership words in index order (the
// sequence points: an owner yields at its next request boundary when it
// sees the handoff flag). Workers are neither woken nor parked — on idle
// shards the acquisition is one CAS each — and the coordinator merges
// across the shards in id order, the same oldest-first total order the
// deterministic engine guarantees. Blocking read/take park the calling
// thread on the request cell until a publish serves it or the timeout
// sends a cancellation.
//
// Linearization contract (the differential-oracle hook, oplog.hpp): every
// operation consumes one ticket from a global atomic counter *inside* its
// critical section — while holding the shard ownership (named ops), all
// ownerships (wildcard/registration ops), or cross_mu_ (interacting
// publishes) — and tuple / waiter / registration ids are the tickets
// themselves, so ticket order is exactly the oldest-first total order and
// replaying the op log in ticket order through the deterministic
// SpaceEngine must reproduce every result. Batch-draining preserves the
// contract trivially: a drain applies requests one at a time, and each
// apply draws its ticket inside the shard's exclusive section. Operations
// that skip cross_mu_ (the common named fast path) provably commute with
// everything they raced; registrations that *create* cross-shard state run
// under the all-shard acquisition so no in-flight publish can miss them.
// snapshot() draws its own ticket and logs the merged cut (kSnapshot), so
// the replay verifies mid-run consistency, not just the final state.
//
// Finite leases (DESIGN.md §12): each shard owns a hierarchical timer
// wheel keyed in engine-relative steady-clock nanoseconds, serviced at the
// top of every drain by whoever owns the shard. The reclamation draws its
// own linearization ticket, logged as kLeaseExpire. Visibility is
// presence: matching needs no deadline checks, because an entry is exactly
// as visible as its not-yet-reclaimed state — which is what the replay
// pre-pass reproduces in the oracle (expiry-at-ticket, oplog.hpp). The
// wheel's next deadline is mirrored into an atomic on ownership release so
// the (possibly sleeping) worker can bound its idle wait without touching
// owner-only state. Renew/cancel-by-id are all-shard ops: ids do not
// encode their shard, and a probe-per-shard protocol could falsely
// linearize a miss (an abort can restore a held entry on an already-probed
// shard before the final probe's ticket).
//
// Remaining intentional restrictions (TB_REQUIRE-guarded): transactional
// writes keep forever leases (commit publication would need to re-arm
// mid-coordination), transactions have no deadline, and notify
// registrations do not expire. The deterministic engine remains the
// full-semantics oracle.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/space/engine.hpp"
#include "src/space/oplog.hpp"
#include "src/space/shard_store.hpp"
#include "src/space/tuple.hpp"
#include "src/util/mpsc_ring.hpp"

namespace tb::obs {
class Registry;
}

namespace tb::space {

class ThreadedSpaceEngine {
 public:
  using NotifyCallback = std::function<void(const Tuple&)>;
  using Stats = SpaceEngine::Stats;

  /// Blocking read/take timeout meaning "wait indefinitely".
  static constexpr std::chrono::nanoseconds kBlockForever =
      std::chrono::nanoseconds::max();

  /// `config.execution_mode` must be kThreaded. When `log` is non-null,
  /// every operation is recorded at its linearization point for the
  /// differential replay (oplog.hpp). The log must outlive the engine.
  explicit ThreadedSpaceEngine(SpaceConfig config, OpLog* log = nullptr);
  ~ThreadedSpaceEngine();

  ThreadedSpaceEngine(const ThreadedSpaceEngine&) = delete;
  ThreadedSpaceEngine& operator=(const ThreadedSpaceEngine&) = delete;

  // --- write ---------------------------------------------------------------

  /// Stores a tuple (forever lease). Under a transaction the write stays
  /// provisional until commit. Callable from any thread; blocks while the
  /// owning shard's inbox ring is full.
  Lease write(Tuple tuple, std::uint64_t txn = kNoTxn);

  /// Stores a tuple for `lease_duration` (kLeaseForever = no expiry); the
  /// deadline counts from the write's linearization point. Transactional
  /// writes must use kLeaseForever. The returned Lease's expires_at is in
  /// engine-relative steady-clock ns (sim::Time::max() = forever).
  Lease write(Tuple tuple, sim::Time lease_duration, std::uint64_t txn);

  // --- non-blocking match --------------------------------------------------

  std::optional<Tuple> read_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn);
  std::optional<Tuple> take_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn);

  // --- bulk ----------------------------------------------------------------

  std::vector<Tuple> read_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX);
  std::vector<Tuple> take_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX);

  // --- blocking match (parks the calling thread) ---------------------------

  /// Completes with a match now or when one is written before `timeout`
  /// (wall clock, counted from call entry — inbox backpressure and transit
  /// spend the budget) elapses; nullopt on timeout or engine shutdown.
  std::optional<Tuple> read(const Template& tmpl,
                            std::chrono::nanoseconds timeout = kBlockForever);
  std::optional<Tuple> take(const Template& tmpl,
                            std::chrono::nanoseconds timeout = kBlockForever);

  // --- transactions --------------------------------------------------------

  /// Opens a transaction (no deadline in threaded mode). A transaction is
  /// owned by one client thread: its operations must not race each other.
  std::uint64_t begin_transaction();
  bool commit(std::uint64_t txn);
  bool abort(std::uint64_t txn);

  // --- notify --------------------------------------------------------------

  /// Registers a listener for every matching write (forever lease).
  /// Callbacks run on engine or client threads and must not call back into
  /// this engine.
  std::uint64_t notify(Template tmpl, NotifyCallback callback);
  bool cancel_notify(std::uint64_t registration);

  // --- leases --------------------------------------------------------------

  /// Extends a live tuple's lease to now + extension (kLeaseForever =
  /// never expires). All-shard op — see the header comment. Returns the
  /// updated lease, or nullopt when the tuple is gone (taken, cancelled or
  /// already reclaimed).
  std::optional<Lease> renew(std::uint64_t tuple_id, sim::Time extension);

  /// Cancels the lease, removing the tuple. All-shard op. False when gone.
  bool cancel(std::uint64_t tuple_id);

  // --- introspection -------------------------------------------------------

  /// Every live committed tuple in ticket (= oldest-first) order. Acquires
  /// all shard ownerships for a consistent cut; draws a ticket and logs
  /// the cut (kSnapshot) so the replay can verify it.
  std::vector<Tuple> snapshot();

  /// Aggregated per-shard + cross-shard stats. All-shard op.
  Stats stats();

  std::size_t size() const {
    return entry_count_.load(std::memory_order_relaxed);
  }
  std::size_t blocked_operations() const {
    return blocked_count_.load(std::memory_order_relaxed);
  }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  int shard_of(std::uint64_t key) const {
    return shard_route(key, shards_.size());
  }
  std::size_t inbox_depth(int shard) const {
    return shards_.at(static_cast<std::size_t>(shard))->ring.approx_size();
  }

  /// Stops the workers, completes every parked blocking op with nullopt
  /// (recorded as shutdown cancellations in the op log) and joins.
  /// Idempotent; called by the destructor. No operation may be issued
  /// concurrently with or after shutdown.
  void shutdown();

  /// Observability (DESIGN.md §7/§11): per-shard inbox depth/peak gauges
  /// and applied-op counters plus engine-level coordination / cross-queue-
  /// serve counters, all read from atomics (or the ring's racy size
  /// estimate) so a snapshot never blocks an owner.
  void bind_metrics(obs::Registry& registry,
                    const std::string& prefix = "space");

  // --- test hooks ----------------------------------------------------------

  /// Takes the shard's ownership word on the calling thread (spinning until
  /// it is free), so no request on the shard applies and its inbox backs up
  /// until resume_shard_for_testing(shard) releases the word from the same
  /// thread — the inbox-backpressure tests. Never combine with
  /// wildcard/txn/snapshot ops or shutdown() while stalled.
  void stall_shard_for_testing(int shard);
  void resume_shard_for_testing(int shard);

 private:
  struct Request;

  using Store = ShardStore<Request*>;  ///< waiter payload: the parked cell
  using Waiter = Store::Waiter;
  using Hit = ShardEntries::Hit;

  struct TxnState {
    std::vector<std::pair<std::uint64_t, Tuple>> writes;  ///< (ticket, tuple)
    std::vector<std::pair<std::uint64_t, Tuple>> held;    ///< (id, tuple)
  };

  /// Notification deliveries collected while holding shard state; flushed
  /// after the ownership release.
  using FireBatch = std::vector<std::pair<NotifyCallback, Tuple>>;

  struct Shard {
    Shard(std::size_t inbox_capacity, bool use_type_index)
        : ring(inbox_capacity), store(use_type_index, wheel) {}

    /// Data-plane inbox: bounded MPSC ring of pooled request cells.
    util::MpscRing<Request*> ring;

    /// Ownership word: 0 = free, 1 = held. All shard state below the
    /// metrics block is touched only between a successful try_own CAS
    /// (acquire) and the matching release store — by the worker, a
    /// combining client, or the all-shard coordinator.
    alignas(util::kCacheLineBytes) std::atomic<std::uint32_t> owner{0};
    /// Coordinator handoff: owners yield at the next request boundary and
    /// non-coordinators stop contending the CAS while this is set.
    std::atomic<bool> handoff_req{false};
    std::atomic<bool> worker_asleep{false};
    /// Threads parked on park_cv for ring space or the ownership word.
    std::atomic<int> park_waiters{0};
    std::atomic<bool> stop{false};
    /// Wheel's conservative next deadline in steady ns, mirrored by the
    /// owner at release; -1 = none. Bounds the worker's idle wait.
    std::atomic<std::int64_t> wheel_next{-1};
    std::mutex park_mu;
    std::condition_variable park_cv;

    // Owner-only shard state.
    Stats stats;
    /// Finite-lease timers, payload = entry id, deadlines in
    /// engine-relative steady ns.
    sim::TimerWheel wheel;
    Store store;  ///< entries on `wheel`, plus the named-waiter queue

    // Exported metrics: atomics, safe to read from any thread.
    std::atomic<std::size_t> inbox_peak{0};
    std::atomic<std::uint64_t> ops_applied{0};

    std::thread worker;
  };

  struct NotifyReg {
    Template tmpl;
    NotifyCallback callback;
  };

  void worker_loop(int shard_idx);

  // --- ownership / drain core ----------------------------------------------

  static bool try_own(Shard& sh) {
    std::uint32_t expect = 0;
    return sh.owner.compare_exchange_strong(expect, 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed);
  }
  /// Publishes the wheel's next deadline, releases the ownership word and
  /// wakes whoever needs the shard next (parked producers / coordinator,
  /// or the worker when backlog or an earlier deadline appeared).
  void release_own(Shard& sh);
  /// Services due lease timers, then applies ring requests until the ring
  /// is empty or a coordinator requests handoff. Caller holds ownership;
  /// returns requests applied. Deliveries accumulate into *fire — flush
  /// with fire_collected() after releasing.
  std::size_t drain(int shard_idx, FireBatch* fire);
  /// One combine attempt: own-drain-release. False when the shard was
  /// unavailable (owned elsewhere or handoff in progress).
  bool try_combine(int shard_idx);
  /// Dekker wake of a sleeping worker (producer/backlog side).
  static void wake_worker(Shard& sh);

  void apply(int shard_idx, Request& req, FireBatch* fire);
  void apply_write(int shard_idx, Request& req, FireBatch* fire);
  void apply_blocking(int shard_idx, Request& req, bool take);
  void apply_cancel_waiter(int shard_idx, Request& req);

  /// Serve-then-store on the tuple's shard (caller owns it).
  /// `cross_locked` = cross_mu_ is held, so the wildcard queue joins the
  /// registration-order merge. `deadline` is the entry's steady-ns expiry.
  void publish(std::uint64_t id, Tuple tuple, bool cross_locked,
               std::int64_t deadline);
  /// Reclaims every entry whose wheel deadline has passed, drawing one
  /// ticket per expiry (logged as kLeaseExpire). Caller owns the shard.
  void service_shard_wheel(int shard_idx);
  /// Nanoseconds since the engine's steady-clock epoch.
  std::int64_t steady_now_ns() const;
  /// Removes a located entry, returning its tuple.
  Tuple erase_entry(Hit hit);
  /// Reads (copies) or takes a located entry, counting it in `stats`.
  Tuple consume(Hit hit, bool take, Stats& stats);
  /// The if-exists match: oldest entry, else (under a transaction) the
  /// transaction's own provisional write; counts a miss when neither.
  /// Caller owns the shard(s) `tmpl` can touch.
  std::optional<Tuple> match_one(const Template& tmpl, TxnState* txn,
                                 bool take, Stats& stats);
  /// The bulk match, logged at `ticket`. Caller owns the shard(s).
  std::vector<Tuple> match_bulk(std::uint64_t ticket, const Template& tmpl,
                                std::size_t max, bool take, Stats& stats);
  /// Appends an op record at `ticket` (no-op without a log); `fill` sets
  /// the kind-specific fields.
  template <class Fill>
  void record(std::uint64_t ticket, OpRecord::Kind kind, Fill&& fill) {
    if (log_ == nullptr) return;
    OpRecord rec;
    rec.ticket = ticket;
    rec.kind = kind;
    fill(rec);
    log_->append(std::move(rec));
  }
  /// Logs a single-result op.
  void log_result(std::uint64_t ticket, OpRecord::Kind kind,
                  std::uint64_t txn, const Template& tmpl,
                  const std::optional<Tuple>& result);
  /// Collects matching notify callbacks (cross_mu_ held); deliver after
  /// the exclusive section via fire_collected().
  void collect_notifications(const Tuple& tuple, FireBatch* fire);
  /// Delivers a drain's collected notifications. Call with no shard state
  /// held.
  void fire_collected(FireBatch fire);
  /// Completes a served waiter: logs the blocked-op record and wakes the
  /// parked client.
  void complete_waiter(const Waiter& waiter, Tuple tuple);
  /// Completes a waiter removed from its queue with nullopt, logging a
  /// cancellation at a fresh ticket (timeout or shutdown).
  void cancel_waiter(const Waiter& waiter, Stats& stats);

  /// Acquires every shard's ownership word in index order (serialized by
  /// barrier_mu_); returns with exclusive access to all shard state.
  void barrier_acquire();
  void barrier_release();
  /// The raw index-order ownership sweep under barrier_acquire — also used
  /// by shutdown(), whose waiter cancellation must serialize with the
  /// timeout-cancel leg of a pre-shutdown blocking op (that leg
  /// flat-combines the shard once the workers are joined).
  void own_all_shards();
  void disown_all_shards();

  std::uint64_t next_ticket() {
    return lin_ticket_.fetch_add(1, std::memory_order_relaxed);
  }
  bool cross_possible() const {
    return cross_count_.load(std::memory_order_acquire) > 0;
  }

  // --- request cells --------------------------------------------------------

  Request* acquire_request();
  void release_request(Request* req);
  /// Enqueues with full-ring backpressure: the producer drains the shard
  /// itself to make space, or wakes the worker and parks while the shard
  /// is owned elsewhere.
  void push_request(int shard_idx, Request* req);
  /// Spins (combining when shard_idx >= 0), then parks on the request cell
  /// until `bits` appears in its phase word.
  void wait_phase(int shard_idx, Request& req, std::uint32_t bits);
  /// Sets `bit` in the phase word and wakes the cell's sleeper if any.
  /// Result fields must be written before the call.
  static void signal_phase(Request& req, std::uint32_t bit);

  TxnState* find_txn(std::uint64_t txn);

  std::optional<Tuple> blocking_op(const Template& tmpl,
                                   std::chrono::nanoseconds timeout,
                                   bool take);
  /// The if-exists and bulk ops: a named template goes through its
  /// shard's ring, a wildcard one is an all-shard sequence-point op.
  std::optional<Tuple> if_exists(const Template& tmpl, std::uint64_t txn,
                                 bool take);
  std::vector<Tuple> bulk(const Template& tmpl, std::size_t max, bool take);
  void note_peak_size();
  void note_peak_blocked();

  SpaceConfig config_;
  OpLog* log_ = nullptr;
  /// Epoch for lease deadlines: every shard wheel is keyed in ns since
  /// this instant, so deadlines are small positive int64s.
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardEntries*> stores_;  ///< &shards_[i]->store, for Scan

  /// Slab of reusable request cells (zero heap allocation per op); every
  /// op releases its cell on return.
  /// Indirect because Request is incomplete here (threaded.cpp owns it).
  std::unique_ptr<util::SlabPool<Request>> pool_;

  /// Global linearization tickets; doubles as the id space for tuples,
  /// waiters, transactions and notify registrations. Starts at 1: 0 marks
  /// "no ticket" (and Lease{0} is invalid).
  std::atomic<std::uint64_t> lin_ticket_{1};

  /// Cross-shard state: wildcard waiters + notify registrations. Guarded
  /// by cross_mu_; cross_count_ is the lock-avoidance hint for publishes
  /// (sound because registrations run under the all-shard acquisition —
  /// see header).
  std::mutex cross_mu_;
  Store::Waiters wildcard_waiters_;
  std::map<std::uint64_t, NotifyReg> notifies_;
  std::atomic<std::size_t> cross_count_{0};
  Stats cross_stats_;  ///< cross_mu_-guarded (notifications, wildcard serves)

  /// Coordination: barrier_mu_ serializes all-shard coordinators; the
  /// per-shard acquisition runs over each shard's ownership word.
  std::mutex barrier_mu_;
  bool barrier_owns_shards_ = false;  ///< barrier_mu_-guarded
  Stats barrier_stats_;  ///< only touched while all shards are held

  std::mutex txn_mu_;
  std::map<std::uint64_t, std::unique_ptr<TxnState>> txns_;

  std::atomic<std::size_t> entry_count_{0};
  std::atomic<std::size_t> blocked_count_{0};
  std::atomic<std::size_t> peak_size_{0};
  std::atomic<std::size_t> peak_blocked_{0};
  std::atomic<std::uint64_t> barriers_{0};
  std::atomic<std::uint64_t> cross_serves_{0};

  std::mutex shutdown_mu_;
  bool shut_down_ = false;
};

}  // namespace tb::space
