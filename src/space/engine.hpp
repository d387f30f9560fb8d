// The sharded tuplespace engine: "a globally shared, associatively
// addressed memory space" (paper §2), with JavaSpaces operation semantics:
//
//  * write(tuple, lease)           — store with a lifetime; returns a Lease
//  * read / take (template)        — non-destructive / destructive match,
//                                    blocking (with timeout) or if-exists
//  * notify(template, listener)    — subscribe/notify callbacks (§2)
//  * lease renewal / cancellation
//  * transactions                  — JavaSpaces-style: writes stay private
//    and takes hold their entries until commit; abort undoes both. A
//    transaction's own operations see its provisional writes; nobody else
//    does. Notifications for transactional writes fire at commit.
//
// Matching order follows the paper's footnote — "the timestamp on each tuple
// determines a total order relation": the oldest matching tuple wins, and
// competing blocked takes are served FIFO, which is what makes the Figure 1
// failover election deterministic ("Just one of them will succeed").
//
// Sharding (DESIGN.md §10): the store is split into `SpaceConfig::
// shard_count` ShardStores (shard_store.hpp — the core this engine shares
// with ThreadedSpaceEngine) keyed by the cached FNV-1a (name, arity)
// type_key.
// A name-constrained template touches exactly one shard; wildcard templates
// fan out with an id-ordered merge across shards, so the paper's total
// order survives partitioning. Blocked operations queue per shard (named
// templates) or in a cross-shard wildcard queue; a published tuple serves
// the union of its shard's queue and the wildcard queue in registration-id
// order — oldest registration wins regardless of shard iteration order.
// shard_count = 1 reproduces the historical monolithic store exactly:
// same event schedule, same stats, same match order.
//
// Determinism contract: every result callback (blocked-op completion, timeout
// and notification) is delivered through a zero-delay simulator event, never
// synchronously from inside write()/take() — callers may therefore issue new
// space operations from callbacks without reentrancy hazards, and coroutine
// adapters (ops.hpp) may register callbacks before suspension completes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/sim/timer_wheel.hpp"
#include "src/space/shard_store.hpp"
#include "src/space/tuple.hpp"

namespace tb::obs {
class Histogram;
class Registry;
}

namespace tb::space {

/// Handle to a written tuple's lifetime.
struct Lease {
  std::uint64_t id = 0;       ///< tuple id; 0 = invalid lease
  sim::Time expires_at;       ///< sim::Time::max() = forever

  bool valid() const { return id != 0; }
};

/// Lease duration meaning "never expires".
inline constexpr sim::Time kLeaseForever = sim::Time::max();

/// "No transaction" marker for the transactional operation overloads.
inline constexpr std::uint64_t kNoTxn = 0;

/// Which runtime executes space operations (DESIGN.md §11).
enum class ExecutionMode : std::uint8_t {
  /// Everything runs on the single deterministic DES thread — the
  /// bit-exact oracle behind every sim, bench table and differential test.
  kDeterministic,
  /// One real worker thread per shard with actor-style ownership
  /// (ThreadedSpaceEngine, threaded.hpp). SpaceEngine itself rejects this
  /// mode: the deterministic engine stays the authoritative semantics.
  kThreaded,
};

struct SpaceConfig {
  /// Index tuples by (name, arity) for sublinear matching. Disabling falls
  /// back to a full linear scan — the bench_space_ops ablation.
  bool use_type_index = true;

  /// Number of store shards (type_key-partitioned). 1 = the historical
  /// monolithic store, bit-exact with the pre-sharding engine; values
  /// < 1 are clamped to 1. Sharding keeps the per-shard entry maps small,
  /// which is what dominates write/take cost on a populated space.
  int shard_count = 1;

  /// Which runtime executes operations. SpaceEngine accepts only
  /// kDeterministic; kThreaded configs are consumed by ThreadedSpaceEngine.
  ExecutionMode execution_mode = ExecutionMode::kDeterministic;

  /// Bounded per-shard request-inbox capacity (threaded mode only):
  /// producers routing named ops to a shard block while its inbox ring is
  /// full — the engine's backpressure. Rounded up to the next power of two
  /// (the inbox is an MPSC ring, util/mpsc_ring.hpp). Ignored in
  /// deterministic mode.
  std::size_t inbox_capacity = 256;
};

class SpaceEngine {
 public:
  using MatchCallback = std::function<void(std::optional<Tuple>)>;
  using NotifyCallback = std::function<void(const Tuple&)>;

  explicit SpaceEngine(sim::Simulator& sim, SpaceConfig config = {});

  SpaceEngine(const SpaceEngine&) = delete;
  SpaceEngine& operator=(const SpaceEngine&) = delete;

  // --- write ---------------------------------------------------------------

  /// Stores a tuple for `lease_duration` (kLeaseForever = no expiry).
  /// Serves blocked operations and notify registrations. Under a
  /// transaction the write stays provisional until commit (the returned
  /// lease id identifies the provisional entry; its clock runs from now).
  Lease write(Tuple tuple, sim::Time lease_duration = kLeaseForever,
              std::uint64_t txn = kNoTxn);

  // --- non-blocking match ----------------------------------------------------

  /// Oldest matching tuple, copied; nullopt when none. Under a transaction
  /// the view includes the transaction's own provisional writes.
  std::optional<Tuple> read_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn);

  /// Oldest matching tuple, removed; nullopt when none. Under a
  /// transaction, a taken committed entry is *held* (invisible to everyone)
  /// until the transaction resolves: commit discards it, abort restores it.
  std::optional<Tuple> take_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn);

  // --- bulk operations (the JavaSpaces05 extension) ----------------------------

  /// Up to `max` matching tuples, oldest first, non-destructive.
  std::vector<Tuple> read_all(const Template& tmpl, std::size_t max = SIZE_MAX);

  /// Removes and returns up to `max` matching tuples, oldest first.
  std::vector<Tuple> take_all(const Template& tmpl, std::size_t max = SIZE_MAX);

  // --- transactions -----------------------------------------------------------

  /// Opens a transaction that auto-aborts after `timeout` (kLeaseForever =
  /// no deadline). Returns its id. Transactions are engine-level: one
  /// transaction may span entries on any number of shards.
  std::uint64_t begin_transaction(sim::Time timeout = kLeaseForever);

  /// Publishes the transaction's writes (with their remaining leases;
  /// expired ones are dropped) and discards its held takes. Publication
  /// runs through the normal write path, so blocked operations and notify
  /// registrations fire at commit time. False when the id is unknown
  /// (already resolved or timed out).
  bool commit(std::uint64_t txn);

  /// Drops the transaction's writes and restores its held takes (unless
  /// their leases ran out while held). False when the id is unknown.
  bool abort(std::uint64_t txn);

  std::size_t open_transactions() const { return transactions_.size(); }
  bool transaction_open(std::uint64_t txn) const {
    return transactions_.contains(txn);
  }

  // --- blocking match (callback completion) -----------------------------------

  /// Completes with a match now or when one is written before `timeout`
  /// elapses; completes with nullopt on timeout. kLeaseForever = wait
  /// indefinitely.
  void read_async(Template tmpl, sim::Time timeout, MatchCallback callback);
  void take_async(Template tmpl, sim::Time timeout, MatchCallback callback);

  // --- notify -----------------------------------------------------------------

  /// Registers a listener fired (asynchronously) for every write whose tuple
  /// matches, for `lease_duration`. Returns the registration id.
  std::uint64_t notify(Template tmpl, sim::Time lease_duration,
                       NotifyCallback callback);
  bool cancel_notify(std::uint64_t registration);

  // --- leases -----------------------------------------------------------------

  /// Extends a live tuple's lease to now + extension. Returns the updated
  /// lease, or nullopt when the tuple is gone (taken or expired).
  std::optional<Lease> renew(std::uint64_t tuple_id, sim::Time extension);

  /// Cancels the lease, removing the tuple. False when already gone.
  bool cancel(std::uint64_t tuple_id);

  // --- federation hooks (DESIGN.md §16) ---------------------------------------
  // Additive observers/removers consumed by mw::NodeCore; none of them
  // changes matching, waiter or notify semantics. Single-node runs never
  // call them, so the legacy event schedule is untouched.

  /// Oldest live entry matching `tmpl`, as (entry id, tuple copy); nullopt
  /// when none. Non-destructive and serves no waiters — the scatter half of
  /// the federated wildcard merge (the node reports its local minimum, the
  /// router picks the global one). Counts scan_steps like any match.
  std::optional<std::pair<std::uint64_t, Tuple>> peek_oldest(
      const Template& tmpl);

  /// Removes the entry with exactly this id, returning its tuple; nullopt
  /// when gone (taken, expired, cancelled — the router re-scatters).
  /// Counts as a take. Serves no waiters: removal cannot unblock anyone.
  std::optional<Tuple> take_by_id(std::uint64_t id);

  /// snapshot() with each tuple's entry id — the per-node half of the
  /// federated merged-final-state check (ids map to global tickets at the
  /// node layer).
  std::vector<std::pair<std::uint64_t, Tuple>> snapshot_with_ids() const;

  /// Called with an entry's id when the entry leaves the space for good:
  /// taken (by template, by id or in bulk), cancelled, expired, or consumed
  /// by a parked take before it was ever stored — the last one happens
  /// inside write(), before it returns the id. A take under a transaction
  /// reports at commit (an abort restores the entry under its id). Lets the
  /// node layer drop per-entry routing state. Empty = none (the default).
  using RemovalListener = std::function<void(std::uint64_t id)>;
  void set_removal_listener(RemovalListener listener) {
    removed_ = std::move(listener);
  }

  // --- introspection -----------------------------------------------------------

  std::size_t size() const;
  /// Every live (unexpired, committed) tuple in id = write-timestamp order,
  /// merged across shards. This is the canonical "space state" the
  /// differential harness (oplog.hpp) compares between runtimes.
  std::vector<Tuple> snapshot() const;
  /// Sum of the stored tuples' byte_size() — maintained incrementally per
  /// shard from the per-entry cache, so it is O(shards) to read.
  std::size_t stored_bytes() const;
  std::size_t blocked_operations() const;
  std::size_t notify_registrations() const { return notifies_.size(); }
  sim::Simulator& simulator() { return *sim_; }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Which shard a (name, arity) shape routes to.
  int shard_of(std::uint64_t key) const {
    return shard_route(key, shards_.size());
  }
  std::size_t shard_size(int shard) const {
    return shards_.at(shard).store.size();
  }
  std::size_t shard_stored_bytes(int shard) const {
    return shards_.at(shard).store.stored_bytes();
  }
  /// Blocked operations parked on this shard's queue (excludes the
  /// cross-shard wildcard queue — see wildcard_blocked()).
  std::size_t shard_blocked(int shard) const {
    return shards_.at(shard).store.waiters().size();
  }
  std::size_t wildcard_blocked() const { return wildcard_waiters_.size(); }

  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;        ///< successful read completions
    std::uint64_t takes = 0;        ///< successful take completions
    std::uint64_t misses = 0;       ///< if-exists misses + blocked timeouts
    std::uint64_t notifications = 0;
    std::uint64_t expirations = 0;
    std::uint64_t renewals = 0;
    std::uint64_t cancellations = 0;
    std::uint64_t scan_steps = 0;   ///< tuples inspected during matching
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;       ///< explicit aborts + timeouts
    std::size_t peak_size = 0;
    std::size_t peak_blocked = 0;

    bool operator==(const Stats&) const = default;
  };
  const Stats& stats() const { return stats_; }

  /// Observability hook (DESIGN.md §7/§10): mirrors Stats into `<p>.*`
  /// counters and store-size gauges at snapshot time, and push-records
  /// blocking read/take service latency (request to match; immediate hits
  /// record 0, timeouts only count as misses) into `<p>.match_ns.read` /
  /// `<p>.match_ns.take`. With shard_count > 0 it additionally publishes
  /// per-shard gauges (`<p>.shard<i>.size|stored_bytes|blocked`) and
  /// per-shard match histograms (`<p>.shard<i>.match_ns.read|take`); the
  /// legacy aggregate names are the sum over shards, so shard_count = 1
  /// keeps `<p>.shard0.*` equal to the aggregates. The registry must
  /// outlive the engine. Default prefix: "space".
  void bind_metrics(obs::Registry& registry, const std::string& prefix = "space");

 private:
  /// What a blocked read/take needs to complete.
  struct Parked {
    MatchCallback callback;
    sim::EventHandle timeout_event;
    sim::Time enqueued;  ///< registration time, for the match-latency histogram
  };
  using Store = ShardStore<Parked>;
  using Waiter = Store::Waiter;
  using Hit = ShardEntries::Hit;

  /// -1 routes to the cross-shard wildcard waiter queue.
  static constexpr int kWildcardShard = -1;

  struct NotifyReg {
    std::uint64_t id = 0;
    Template tmpl;
    NotifyCallback callback;
    sim::TimerWheel::TimerId expiry_timer = 0;
  };

  /// A provisional write awaiting commit.
  struct PendingWrite {
    std::uint64_t id = 0;
    Tuple tuple;
    sim::Time expires_at;  ///< clock runs from the provisional write
  };

  /// A committed entry held by a take-under-transaction.
  struct HeldEntry {
    std::uint64_t original_id = 0;
    Tuple tuple;
    sim::Time expires_at;
  };

  struct Txn {
    std::uint64_t id = 0;
    std::vector<PendingWrite> writes;
    std::vector<HeldEntry> held;
    sim::EventHandle timeout_event;
  };

  struct Shard {
    Shard(bool use_type_index, sim::TimerWheel& wheel)
        : store(use_type_index, wheel) {}
    Store store;
    obs::Histogram* match_read_ns = nullptr;  ///< set by bind_metrics
    obs::Histogram* match_take_ns = nullptr;
  };

  /// Fires matching notify registrations for a (now public) write.
  void fire_notifications(const Tuple& tuple);

  /// Serves blocked operations, then stores the tuple under `id` unless a
  /// blocked take consumed it. The common tail of public writes, commit
  /// publication and abort restoration.
  void publish(std::uint64_t id, Tuple tuple, sim::Time expires_at);

  Txn* find_txn(std::uint64_t txn);
  void resolve_txn(std::map<std::uint64_t, Txn>::iterator it, bool commit_it);

  /// Oldest live entry matching `tmpl` across the relevant shard(s).
  Hit find_match(const Template& tmpl);
  /// Removes a located entry, returning its tuple. `for_good` = false only
  /// for a transactional take, whose entry an abort may restore.
  Tuple erase_entry(Hit hit, bool for_good = true);
  std::int64_t now_ns() const { return sim_->now().count_ns(); }
  void blocking_match(Template tmpl, sim::Time timeout, MatchCallback callback,
                      bool take);
  void deliver(MatchCallback callback, std::optional<Tuple> result);

  // --- lease timer wheel (DESIGN.md §12) -------------------------------------
  // All finite leases — entries and notify registrations — live on one
  // hierarchical timer wheel serviced by a single kernel event re-armed at
  // the wheel's conservative next_deadline() bound, so the event heap
  // carries O(1) state regardless of the outstanding lease count.

  /// Wheel payloads with this bit set identify notify registrations; the
  /// rest identify entry ids (probed across shards at fire time).
  static constexpr std::uint64_t kNotifyTimer = std::uint64_t{1} << 63;

  sim::TimerWheel::TimerId arm_lease_timer(sim::Time expires_at,
                                           std::uint64_t payload);
  /// (Re-)arms wheel_event_ at the wheel's next conservative deadline.
  void reschedule_wheel();
  /// Fires due timers and re-arms; spurious wakeups only tighten the bound.
  void service_wheel();
  void expire_payload(std::uint64_t payload);
  Store::Waiters& waiter_queue(int shard) {
    return shard == kWildcardShard ? wildcard_waiters_
                                   : shards_[shard].store.waiters();
  }
  void record_match(int shard, bool take, std::uint64_t waited_ns);

  sim::Simulator* sim_;
  SpaceConfig config_;
  std::uint64_t next_id_ = 1;
  std::size_t entry_count_ = 0;  ///< sum of shard entry maps, kept O(1)

  sim::TimerWheel wheel_;              ///< every finite lease, O(1) arm/cancel
  sim::EventHandle wheel_event_;       ///< single kernel event servicing it
  std::int64_t wheel_armed_at_ = -1;   ///< deadline wheel_event_ is armed for
  std::vector<Shard> shards_;          ///< entry leases arm on wheel_
  std::vector<ShardEntries*> stores_;  ///< &shards_[i].store, for Scan
  Store::Waiters wildcard_waiters_;  ///< unnamed templates: watch all shards
  std::map<std::uint64_t, NotifyReg> notifies_;
  std::map<std::uint64_t, Txn> transactions_;
  Stats stats_;
  obs::Histogram* match_read_ns_ = nullptr;  ///< aggregate, set by bind_metrics
  obs::Histogram* match_take_ns_ = nullptr;
  RemovalListener removed_;
};

}  // namespace tb::space
