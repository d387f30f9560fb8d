// Operation-log record/replay — the differential oracle harness
// (DESIGN.md §11).
//
// The threaded runtime (threaded.hpp) records every engine operation into an
// OpLog at its linearization point: the instant the op's effect becomes
// visible, stamped with a globally unique, monotonically allocated ticket.
// Replaying the records in ticket order through the single-threaded
// deterministic SpaceEngine must reproduce every per-op result and the same
// final space state — any divergence is a concurrency bug in the threaded
// engine (lost wakeup, mis-ordered wildcard merge, racy waiter claim, ...).
//
// There is one replay implementation, ReplayChecker: a streaming checker
// that takes records in ticket order, applies each to the oracle as it
// arrives and returns the ReplayReport at finish(final_state). replay_log
// is "sort, feed everything as one batch, finish". The federation feeds it
// while it runs (fed::SimCluster): a node hands over each record in the
// event that draws the record's ticket, the checker applies it, moving a
// write's tuple into the oracle, and frees it, so the evidence is the
// oracle's live entries rather than the run's history.
//
// The replay clock is the ticket itself: record k executes at sim time
// Time::ns(k), on a simulator of the checker's own. Before it applies a
// record, the checker runs that simulator up to the record's ticket, which
// fires the oracle's own timers first; no record is ever an event. Blocked
// operations that timed out carry the ticket their cancellation consumed,
// so the replay registers them with exactly the timeout that fires at that
// instant — a write that *should* have served the waiter before it timed
// out then shows up as a result mismatch.
//
// Finite leases replay the same way (expiry-at-ticket): the threaded
// runtime logs a kLeaseExpire record at the ticket its shard worker drew
// when it reclaimed the entry — visibility in threaded mode is presence,
// no deadline checks. A pre-pass over each batch that holds an expiry
// (detail::plan_leases) rewrites every arming (write or successful renew)
// to the duration ns(expiry_ticket - arming_ticket), so the oracle's wheel
// reclaims the entry at exactly the recorded linearization point; armings
// with no matching expiry in the batch (taken, cancelled, renewed away, or
// still live at the end) replay as forever. That is the checker's one
// look-ahead: an expiry whose arming an earlier batch already applied
// cannot replay and is reported as a divergence on its ticket. A finished
// log is one batch, and federated logs hold no expiries (DESIGN.md §16).
//
// The replay is generic over the oracle: the differential tests replay
// every threaded log through SpaceEngine and through a naive linear-scan
// reference model that shares no code with either engine (both engines
// share ShardStore, so SpaceEngine alone would check that core against
// itself).
//
// The checker holds little beside the oracle. Its side tables map the
// write ticket a renew or lease cancel names to the oracle's entry id, and
// drop the mapping when the oracle reports the entry removed; waiters are
// held only until they complete as recorded. Transaction and notify
// registrations stay mapped for the whole run.
//
// A log that is replayed offline is held compactly. A record is a 32 B
// header (ticket, txn, target, kind, ok), one inline Tuple — a kWrite's
// argument or a kTakeExact's result — and a pointer to a side payload
// (template, single and bulk results, bulk bound, blocked-op outcome) that
// only the match kinds allocate: 96 B. With its tuple's heap, a federated
// job record (three fields, a 16-256 B blob) costs about 345 B
// (test_space_oplog's OpLogMemory.HeapPerFedShapedRecord gates it). Records
// live in 64 KiB chunks, below glibc's 128 KiB mmap threshold: a contiguous
// log grows by doubling, and each freed multi-megabyte block leaves a hole
// the next, larger log cannot reuse (DESIGN.md §16 has the numbers).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/space/engine.hpp"
#include "src/space/tuple.hpp"
#include "src/util/assert.hpp"

namespace tb::space {

struct OpRecord {
  enum class Kind : std::uint8_t {
    kWrite,         ///< tuple (+txn when provisional)
    kReadIfExists,  ///< match: tmpl, result (+txn)
    kTakeIfExists,  ///< match: tmpl, result (+txn)
    kReadAll,       ///< match: tmpl, max, results
    kTakeAll,       ///< match: tmpl, max, results
    kBlockingRead,  ///< match: tmpl (+result, timed_out, cancel_ticket);
                    ///< ticket = registration point
    kBlockingTake,  ///< as kBlockingRead
    kBeginTxn,      ///< ticket doubles as the transaction id
    kCommit,        ///< txn; ok
    kAbort,         ///< txn; ok
    kNotifyReg,     ///< match: tmpl; ticket doubles as the registration id
    kNotifyCancel,  ///< target = registration ticket; ok
    kRenew,         ///< target = entry write ticket; ok = entry was live
    kCancelLease,   ///< target = entry write ticket; ok = entry was live
    kLeaseExpire,   ///< target = entry write ticket; drawn when the shard
                    ///< worker reclaims the entry (expiry-at-ticket)
    kSnapshot,      ///< match: results = the consistent cut snapshot()
                    ///< returned; replay checks the oracle's cut at the
                    ///< same ticket
    kTakeExact,     ///< tuple = the removed tuple; replays as
                    ///< take_if_exists of Template::exact_of(tuple)
  };

  /// The match-op side payload. Only the kinds marked "match" above
  /// allocate one; writes, exact takes and the id-only kinds never do.
  struct Match {
    Template tmpl;                ///< match-op argument
    std::optional<Tuple> result;  ///< single-match result
    std::vector<Tuple> results;   ///< bulk results, oldest first
    std::size_t max = 0;          ///< kReadAll / kTakeAll bound
    /// Blocked ops only: the ticket consumed when the waiter was cancelled
    /// (timeout or shutdown). 0 = completed at its own ticket (immediate
    /// result) or served by a later publish.
    std::uint64_t cancel_ticket = 0;
    bool timed_out = false;  ///< blocked op completed with no match
  };

  std::uint64_t ticket = 0;  ///< linearization point; unique, total order
  std::uint64_t txn = 0;     ///< owning transaction ticket; kNoTxn = none
  std::uint64_t target = 0;  ///< id-only kinds: the ticket acted on
  Kind kind = Kind::kWrite;
  bool ok = false;           ///< kCommit / kAbort / kNotifyCancel result
  Tuple tuple;               ///< kWrite argument; kTakeExact result

  OpRecord() = default;
  /// Copies deep-copy the side payload.
  OpRecord(const OpRecord& other);
  OpRecord& operator=(const OpRecord& other);
  OpRecord(OpRecord&&) noexcept = default;
  OpRecord& operator=(OpRecord&&) noexcept = default;

  bool has_match() const { return match_ != nullptr; }
  /// The side payload, allocated on first use.
  Match& match() {
    if (!match_) match_ = std::make_unique<Match>();
    return *match_;
  }
  /// The side payload; an empty one for a record that has none.
  const Match& match() const {
    static const Match kNone;
    return match_ ? *match_ : kNone;
  }

 private:
  std::unique_ptr<Match> match_;
};
// A 32 B header + the inline Tuple (56 B) + the side pointer. A federated
// write or take fills only the header and the tuple; at <= 96 B a 64 KiB
// chunk holds 682 records.
static_assert(sizeof(OpRecord) <= 96, "OpRecord outgrew its chunk stride");

class EngineChecker;

/// Thread-safe append-only record of engine operations. Appends may arrive
/// in any wall-clock order; by_ticket() restores the linearization order.
///
/// Records live in fixed-size chunks, each one allocation of at most
/// kChunkBytes: append() never moves a record. A chunk stays under glibc's
/// 128 KiB mmap threshold, so chunks come from the heap and a freed one is
/// reused by the next log instead of leaving a hole that the next, larger
/// block cannot use.
///
/// A log may also carry a checked prefix: the checker that already checked
/// (and freed) every record logged before the ones the log holds. A live
/// federation hands its online checker over this way, and
/// replay_against_oracle finishes it.
class OpLog {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  static constexpr std::size_t kChunkRecords = kChunkBytes / sizeof(OpRecord);
  static_assert(kChunkBytes < (std::size_t{128} << 10),
                "a chunk must stay under the mmap threshold");

  void append(OpRecord record);

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  /// Every record, ascending by ticket, as pointers into this log; a
  /// pointer stays valid as long as the log.
  std::vector<const OpRecord*> by_ticket() const;

  /// Attaches the checker that checked every record before this log's
  /// (it must not carry one already).
  void carry(std::shared_ptr<EngineChecker> checked);
  /// That checker; null when the log holds its whole history.
  std::shared_ptr<EngineChecker> checked_prefix() const {
    std::lock_guard<std::mutex> lock(mu_);
    return checked_;
  }

 private:
  /// Reserved to kChunkRecords when created and never grown past it.
  using Chunk = std::vector<OpRecord>;

  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
  std::shared_ptr<EngineChecker> checked_;
};

struct ReplayReport {
  bool equivalent = true;
  /// First divergence, human-readable; empty when equivalent.
  std::string divergence;
  std::size_t ops_replayed = 0;
  /// Oracle-side notification deliveries per registration ticket.
  std::map<std::uint64_t, std::uint64_t> notify_deliveries;
  /// Oracle stats after the replay (notification totals, op counts).
  SpaceEngine::Stats oracle_stats;
};

namespace detail {

std::string describe(const Tuple& t);
std::string describe(const std::optional<Tuple>& t);
std::string describe(const std::vector<Tuple>& ts);
std::string describe(bool ok);
const char* kind_name(OpRecord::Kind kind);

/// The lease pre-pass over one ticket-ordered batch (expiry-at-ticket, see
/// the header comment): replay durations in ticket-ns for every arming that
/// a kLeaseExpire record in the batch terminates; absent armings replay as
/// forever.
struct LeasePlan {
  std::unordered_map<std::uint64_t, std::int64_t> write;  ///< by write ticket
  std::unordered_map<std::uint64_t, std::int64_t> renew;  ///< by renew ticket
  /// kLeaseExpire tickets whose entry was written before the batch and not
  /// re-armed in it: that arming was applied as forever, so the expiry
  /// cannot replay.
  std::unordered_set<std::uint64_t> stranded;
};
LeasePlan plan_leases(const std::vector<const OpRecord*>& records);

}  // namespace detail

/// The one replay implementation: a streaming checker over `Oracle`, any
/// store with SpaceEngine's operation surface — SpaceEngine itself, or the
/// naive reference model the tests keep — running on `sim`, a simulator of
/// its own whose clock is the ticket.
///
/// Records arrive in ticket order: either one at a time, check(record),
/// which takes the record over and frees it once applied, or as a batch
/// the caller keeps, check(batch). Every record must be above every ticket
/// checked before it. finish(final_state) checks the
/// blocked-op outcomes and the final space state (the recorded run's
/// post-run snapshot()) and returns the report. How a log is cut into
/// batches does not change the report, so long as no cut falls between an
/// arming and its expiry (see the header comment).
template <class Oracle>
class ReplayChecker {
 public:
  ReplayChecker(sim::Simulator& sim, Oracle& oracle)
      : sim_(&sim), oracle_(&oracle) {
    if constexpr (kTracksRemovals) {
      oracle.set_removal_listener([this](std::uint64_t id) { removed(id); });
    }
  }
  ReplayChecker(const ReplayChecker&) = delete;
  ReplayChecker& operator=(const ReplayChecker&) = delete;

  /// Checks `record` as a batch of its own and frees it: a write's tuple
  /// moves into the oracle.
  void check(OpRecord record) {
    // An expiry is its own lease batch (it has no tuple to move).
    if (record.kind == Kind::kLeaseExpire) {
      check(std::vector<const OpRecord*>{&record});
      return;
    }
    TB_REQUIRE(!finished_);
    step(record);
  }

  /// Checks `batch`, ticket-ordered records the caller keeps: they are read,
  /// never consumed.
  void check(const std::vector<const OpRecord*>& batch) {
    TB_REQUIRE(!finished_);
    const bool planned = plan(batch);
    for (const OpRecord* record : batch) step(*record);
    if (planned) leases_ = {};
  }

  /// Reports a divergence on `record` before it is checked: a check the
  /// feeder makes (a ticket gap in a live federation).
  void reject(const OpRecord& record, const std::string& what) {
    diverge(At{fed_, record.ticket, record.kind}, what);
  }

  /// Runs the oracle's clock out, checks the
  /// blocked-op outcomes and the final state, and returns the report. The
  /// checker takes no record after this.
  ReplayReport finish(const std::vector<Tuple>& final_state) {
    TB_REQUIRE(!finished_);
    finished_ = true;
    if (broken_) return report_;
    try {
      sim_->run();
    } catch (const std::exception& e) {
      diverge(last_, std::string("oracle replay threw: ") + e.what());
      return report_;
    }
    // Blocked-op completions: the oracle must have produced exactly the
    // recorded outcome. A forever-parked waiter whose record says "matched"
    // never completes; a waiter the oracle served but the record says timed
    // out completes with a tuple — both are divergences. A waiter that
    // completed as recorded was dropped when it completed.
    for (const auto& [index, waiter] : blocked_) {
      const At at{index, waiter.ticket, waiter.kind};
      if (!waiter.completed) {
        if (!waiter.timed_out) {
          diverge(at, "oracle never completed; recorded " +
                          detail::describe(waiter.expected));
        }
        continue;
      }
      check(at, waiter.result, waiter.expected);
    }
    // Final-state equivalence: same live tuples in the same total order.
    check(fed_ == 0 ? At{.record = false} : last_, oracle_->snapshot(),
          final_state);
    report_.oracle_stats = oracle_->stats();
    return report_;
  }

  /// The verdict so far: the first divergence, and every record checked.
  const ReplayReport& report() const { return report_; }
  std::size_t checked() const { return fed_; }
  /// The ticket of the last record checked; 0 before the first.
  std::uint64_t last_ticket() const { return last_.ticket; }

 private:
  using Kind = OpRecord::Kind;

  /// Oracles with a removal listener (SpaceEngine) let the write-ticket map
  /// hold live entries only; without one it keeps every write.
  static constexpr bool kTracksRemovals = requires(Oracle& o) {
    o.set_removal_listener([](std::uint64_t) {});
  };

  /// Where a divergence sits: a record's op index (position in ticket
  /// order), ticket and kind. Only the final-state check of an empty log
  /// has no record.
  struct At {
    std::size_t index = 0;
    std::uint64_t ticket = 0;
    Kind kind = Kind::kWrite;
    bool record = true;
  };
  /// A blocking record's waiter, until it completes as recorded.
  struct Waiter {
    std::uint64_t ticket = 0;
    Kind kind = Kind::kBlockingRead;
    std::optional<Tuple> expected;
    bool timed_out = false;
    bool completed = false;
    std::optional<Tuple> result = std::nullopt;
  };

  void diverge(const At& at, const std::string& what) {
    if (!report_.equivalent) return;  // first divergence wins
    report_.equivalent = false;
    report_.divergence = "op[" + std::to_string(at.index) + "]";
    if (at.record) {
      report_.divergence += " ticket " + std::to_string(at.ticket) + " (" +
                            detail::kind_name(at.kind) + ")";
    }
    report_.divergence += ": " + what;
  }
  template <class Got, class Want>
  void check(const At& at, const Got& got, const Want& want) {
    if (got != want) {
      diverge(at, "oracle " + detail::describe(got) + " != recorded " +
                      detail::describe(want));
    }
  }

  static std::uint64_t mapped(
      const std::unordered_map<std::uint64_t, std::uint64_t>& map,
      std::uint64_t ticket) {
    const auto it = map.find(ticket);
    return it == map.end() ? 0 : it->second;
  }
  static sim::Time lease_for(
      const std::unordered_map<std::uint64_t, std::int64_t>& plan,
      std::uint64_t ticket) {
    const auto it = plan.find(ticket);
    return it == plan.end() ? kLeaseForever : sim::Time::ns(it->second);
  }

  /// Runs the lease pre-pass over `batch` if it holds an expiry; a live
  /// run's batches hold none, and skip its cost. Returns whether it ran.
  bool plan(const std::vector<const OpRecord*>& batch) {
    for (const OpRecord* record : batch) {
      if (record->kind == Kind::kLeaseExpire) {
        leases_ = detail::plan_leases(batch);
        return true;
      }
    }
    return false;
  }

  /// The oracle's removal listener: the entry's write ticket is no longer
  /// worth a mapping (a renew or cancel of it now misses, as it would).
  void removed(std::uint64_t id) {
    last_removed_ = id;
    const auto it = write_of_id_.find(id);
    if (it == write_of_id_.end()) return;
    id_of_write_.erase(it->second);
    write_of_id_.erase(it);
  }

  /// Applies one record at its ticket. `Rec` is const for a batch the
  /// caller keeps and mutable for a record handed over, whose tuple a
  /// write moves.
  template <class Rec>
  void step(Rec& r) {
    const std::size_t i = fed_++;
    report_.ops_replayed = fed_;
    if (broken_) return;
    if (i > 0 && r.ticket <= last_.ticket) {
      diverge(At{i, r.ticket, r.kind},
              r.ticket == last_.ticket
                  ? std::string("ticket repeats the previous record's")
                  : "ticket below the previous record's " +
                        std::to_string(last_.ticket));
    }
    try {
      // The oracle's own timers due by this ticket fire first; a throw
      // there names the record applied last.
      const sim::Time at = sim::Time::ns(static_cast<std::int64_t>(r.ticket));
      if (at > sim_->now()) sim_->run_until(at);
      last_ = At{i, r.ticket, r.kind};
      apply(r);
    } catch (const std::exception& e) {
      broken_ = true;
      diverge(last_, std::string("oracle replay threw: ") + e.what());
    }
  }

  template <class Rec>
  void apply(Rec& r) {
    const OpRecord::Match& m = r.match();
    const At& at = last_;
    const std::size_t i = at.index;
    const std::uint64_t txn = mapped(txn_map_, r.txn);
    switch (r.kind) {
      case Kind::kWrite: {
        const std::uint64_t id =
            oracle_
                ->write(std::move(r.tuple), lease_for(leases_.write, r.ticket),
                        txn)
                .id;
        // A write a parked take consumed was never stored: the oracle
        // reported its removal before returning the id.
        if (kTracksRemovals && id == last_removed_) break;
        id_of_write_[r.ticket] = id;
        if (kTracksRemovals) write_of_id_[id] = r.ticket;
        break;
      }
      case Kind::kReadIfExists:
        check(at, oracle_->read_if_exists(m.tmpl, txn), m.result);
        break;
      case Kind::kTakeIfExists:
        check(at, oracle_->take_if_exists(m.tmpl, txn), m.result);
        break;
      case Kind::kTakeExact:
        check(at, oracle_->take_if_exists(Template::exact_of(r.tuple), txn),
              r.tuple);
        break;
      case Kind::kReadAll:
        check(at, oracle_->read_all(m.tmpl, m.max), m.results);
        break;
      case Kind::kTakeAll:
        check(at, oracle_->take_all(m.tmpl, m.max), m.results);
        break;
      case Kind::kBlockingRead:
      case Kind::kBlockingTake: {
        // A record cancelled at ticket c parks with exactly the timeout
        // that fires at sim time ns(c); a record that matched waits
        // forever (the serving publish completes it, or nothing does and
        // the non-completion is the divergence).
        const sim::Time timeout =
            m.timed_out ? sim::Time::ns(static_cast<std::int64_t>(
                              m.cancel_ticket > r.ticket
                                  ? m.cancel_ticket - r.ticket
                                  : 0))
                        : kLeaseForever;
        blocked_.emplace(i, Waiter{.ticket = r.ticket,
                                   .kind = r.kind,
                                   .expected = m.timed_out ? std::nullopt
                                                           : m.result,
                                   .timed_out = m.timed_out});
        auto callback = [this, i](std::optional<Tuple> result) {
          const auto it = blocked_.find(i);
          if (it == blocked_.end()) return;
          if (result == it->second.expected) {
            blocked_.erase(it);
            return;
          }
          it->second.completed = true;
          it->second.result = std::move(result);
        };
        if (r.kind == Kind::kBlockingTake) {
          oracle_->take_async(m.tmpl, timeout, std::move(callback));
        } else {
          oracle_->read_async(m.tmpl, timeout, std::move(callback));
        }
        break;
      }
      case Kind::kBeginTxn:
        txn_map_[r.ticket] = oracle_->begin_transaction();
        break;
      case Kind::kCommit:
        check(at, oracle_->commit(txn), r.ok);
        break;
      case Kind::kAbort:
        check(at, oracle_->abort(txn), r.ok);
        break;
      case Kind::kNotifyReg:
        notify_map_[r.ticket] = oracle_->notify(
            m.tmpl, kLeaseForever, [this, ticket = r.ticket](const Tuple&) {
              ++report_.notify_deliveries[ticket];
            });
        break;
      case Kind::kNotifyCancel: {
        const std::uint64_t reg = mapped(notify_map_, r.target);
        check(at, reg != 0 && oracle_->cancel_notify(reg), r.ok);
        break;
      }
      case Kind::kRenew: {
        const std::uint64_t id = mapped(id_of_write_, r.target);
        check(at,
              id != 0 && oracle_->renew(id, lease_for(leases_.renew, r.ticket))
                             .has_value(),
              r.ok);
        break;
      }
      case Kind::kCancelLease: {
        const std::uint64_t id = mapped(id_of_write_, r.target);
        check(at, id != 0 && oracle_->cancel(id), r.ok);
        break;
      }
      case Kind::kLeaseExpire:
        // Nothing to apply: the pre-pass turned this record into the
        // arming's replay duration, so the oracle's own clock reclaims the
        // entry at exactly this instant — unless an earlier batch applied
        // that arming as forever.
        if (leases_.stranded.contains(r.ticket)) {
          diverge(at, "lease expiry past the checked prefix: write " +
                          std::to_string(r.target) +
                          " was armed in an earlier batch");
        }
        break;
      case Kind::kSnapshot:
        // Mid-run consistent cut: the threaded engine's sequence-point
        // snapshot must equal the oracle's space at the same ticket.
        check(at, oracle_->snapshot(), m.results);
        break;
    }
  }

  sim::Simulator* sim_;
  Oracle* oracle_;
  ReplayReport report_;
  detail::LeasePlan leases_;            ///< the batch being checked
  std::size_t fed_ = 0;                 ///< records checked = next op index
  At last_;                             ///< the record applied last
  bool broken_ = false;  ///< an oracle call threw: nothing more applies
  bool finished_ = false;
  /// Waiters not yet completed as recorded, by op index (replay order).
  std::map<std::size_t, Waiter> blocked_;
  std::unordered_map<std::uint64_t, std::uint64_t> txn_map_;     // ticket -> id
  std::unordered_map<std::uint64_t, std::uint64_t> notify_map_;  // ticket -> id
  /// Write ticket <-> oracle entry id; with a removal listener, live
  /// entries only.
  std::unordered_map<std::uint64_t, std::uint64_t> id_of_write_;
  std::unordered_map<std::uint64_t, std::uint64_t> write_of_id_;
  std::uint64_t last_removed_ = 0;  ///< newest id the oracle reported gone
};

/// A ReplayChecker over a fresh deterministic SpaceEngine on a private
/// ticket clock: what a live federation checks its records with, and what
/// replay_against_oracle replays a finished log through. `config` should
/// match the recorded run's shard_count / use_type_index; execution_mode
/// is forced to kDeterministic.
class EngineChecker {
 public:
  explicit EngineChecker(SpaceConfig config);
  EngineChecker(const EngineChecker&) = delete;
  EngineChecker& operator=(const EngineChecker&) = delete;

  ReplayChecker<SpaceEngine>& checker() { return checker_; }
  const SpaceEngine& oracle() const { return oracle_; }

 private:
  sim::Simulator sim_{1, sim::Simulator::Binding::kPrivate};
  SpaceEngine oracle_;
  ReplayChecker<SpaceEngine> checker_;
};

/// Replays `log` in ticket order through `oracle` on `sim` (see
/// ReplayChecker) and checks the final state against `final_state`. The
/// log must hold its whole history: a checked prefix lives in an
/// EngineChecker, which only replay_against_oracle finishes.
template <class Oracle>
ReplayReport replay_log(const OpLog& log, sim::Simulator& sim, Oracle& oracle,
                        const std::vector<Tuple>& final_state) {
  TB_REQUIRE_MSG(log.checked_prefix() == nullptr,
                 "a log with a checked prefix replays through its checker");
  ReplayChecker<Oracle> checker(sim, oracle);
  checker.check(log.by_ticket());
  return checker.finish(final_state);
}

/// Replays `log` through the checker of its checked prefix, or through a
/// fresh EngineChecker built from `config` when it has none, and finishes
/// it against `final_state`.
ReplayReport replay_against_oracle(const OpLog& log, SpaceConfig config,
                                   const std::vector<Tuple>& final_state);

}  // namespace tb::space
