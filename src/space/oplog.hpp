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
// The replay clock is the ticket itself: record k executes at sim time
// Time::ns(k). Blocked operations that timed out carry the ticket their
// cancellation consumed, so the replay registers them with exactly the
// timeout that fires at that instant — a write that *should* have served the
// waiter before it timed out then shows up as a result mismatch.
//
// Finite leases replay the same way (expiry-at-ticket): the threaded
// runtime logs a kLeaseExpire record at the ticket its shard worker drew
// when it reclaimed the entry — visibility in threaded mode is presence,
// no deadline checks. A replay pre-pass walks the records in ticket order
// and rewrites every arming (write or successful renew) to the duration
// ns(expiry_ticket - arming_ticket), so the oracle's wheel reclaims the
// entry at exactly the recorded linearization point; armings with no
// matching expiry (taken, cancelled, renewed away, or still live at the
// end) replay as forever.
//
// The replay is generic over the oracle: the differential tests replay
// every threaded log through SpaceEngine and through a naive linear-scan
// reference model that shares no code with either engine (both engines
// share ShardStore, so SpaceEngine alone would check that core against
// itself).
//
// The evidence is held once. Replay walks a ticket-sorted view of pointers
// into the log (OpLog::by_ticket) and never copies a record; the federation
// builds its merged log by splice(), which moves every node's records
// instead of copying them; and a federated take is logged as kTakeExact,
// which keeps only the removed tuple — the replay derives the exact-value
// template from it (Template::exact_of) rather than storing a second copy.
// The replay adds little beside it: it keeps one record event pending in
// the kernel (each record's event schedules the next one's), and its side
// tables hold only tickets that a later record names — the writes a renew
// or lease cancel targets, and the armings of entries a kLeaseExpire
// reclaims.
//
// The evidence is also held compactly. A record is a 32 B header (ticket,
// txn, target, kind, ok), one inline Tuple — a kWrite's argument or a
// kTakeExact's result — and a pointer to a side payload (template, single
// and bulk results, bulk bound, blocked-op outcome) that only the match
// kinds allocate: 96 B. With its tuple's heap, a federated job record
// (three fields, a 16-256 B blob) costs about 345 B (test_space_oplog's
// OpLogMemory.HeapPerFedShapedRecord gates it). Records live in 64 KiB
// chunks, below glibc's 128 KiB mmap threshold: a contiguous log grows by
// doubling, and each freed multi-megabyte block leaves a hole the next,
// larger log cannot reuse, so peak RSS grows with every log built and
// freed (DESIGN.md §16 has the numbers).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/space/engine.hpp"
#include "src/space/tuple.hpp"

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

/// Thread-safe append-only record of engine operations. Appends may arrive
/// in any wall-clock order; by_ticket() restores the linearization order.
///
/// Records live in fixed-size chunks, each one allocation of at most
/// kChunkBytes: append() never moves a record, and splice() moves chunks,
/// not records. A chunk stays under glibc's 128 KiB mmap threshold, so
/// chunks come from the heap and a freed one is reused by the next log
/// instead of leaving a hole that the next, larger block cannot use.
class OpLog {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  static constexpr std::size_t kChunkRecords = kChunkBytes / sizeof(OpRecord);
  static_assert(kChunkBytes < (std::size_t{128} << 10),
                "a chunk must stay under the mmap threshold");

  void append(OpRecord record);

  /// Moves every chunk of `from` to the end of this log and leaves `from`
  /// empty. Records keep their addresses and buffers: nothing is copied,
  /// and nothing is sorted (the replay sorts).
  void splice(OpLog& from);

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  /// Every record, ascending by ticket, as pointers into this log. A
  /// pointer stays valid while its record is in this log; splice() carries
  /// it over to the destination log.
  std::vector<const OpRecord*> by_ticket() const;

 private:
  /// Reserved to kChunkRecords when created and never grown past it.
  using Chunk = std::vector<OpRecord>;

  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
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

/// The lease pre-pass (expiry-at-ticket, see the header comment): replay
/// durations in ticket-ns for every arming that a kLeaseExpire record
/// terminates; absent armings replay as forever.
struct LeasePlan {
  std::unordered_map<std::uint64_t, std::int64_t> write;  ///< by write ticket
  std::unordered_map<std::uint64_t, std::int64_t> renew;  ///< by renew ticket
};
LeasePlan plan_leases(const std::vector<const OpRecord*>& records);

}  // namespace detail

/// Replays `log` in ticket order through `oracle` and checks every recorded
/// per-op result plus the final space state against `final_state` (the
/// threaded engine's post-run snapshot()). `oracle` is any store with
/// SpaceEngine's operation surface — SpaceEngine itself, or the naive
/// reference model the tests keep — running on `sim`, a fresh simulator
/// whose clock is the ticket: record k executes at sim time Time::ns(k).
template <class Oracle>
ReplayReport replay_log(const OpLog& log, sim::Simulator& sim, Oracle& oracle,
                        const std::vector<Tuple>& final_state) {
  using Kind = OpRecord::Kind;
  ReplayReport report;
  const std::vector<const OpRecord*> records = log.by_ticket();
  report.ops_replayed = records.size();

  auto diverge = [&report, &records](std::size_t i, const std::string& what) {
    if (!report.equivalent) return;  // first divergence wins
    report.equivalent = false;
    report.divergence = "op[" + std::to_string(i) + "]";
    if (i < records.size()) {
      report.divergence += " ticket " + std::to_string(records[i]->ticket) +
                           " (" + detail::kind_name(records[i]->kind) + ")";
    }
    report.divergence += ": " + what;
  };
  auto check = [&diverge](std::size_t i, const auto& got, const auto& want) {
    if (got != want) {
      diverge(i, "oracle " + detail::describe(got) + " != recorded " +
                     detail::describe(want));
    }
  };

  // Oracle outcome of each blocking record, in replay order, filled by the
  // completion callbacks (which hold a slot index, so growth is safe).
  struct BlockedOutcome {
    std::size_t index = 0;  ///< into records
    bool completed = false;
    std::optional<Tuple> result;
  };
  std::vector<BlockedOutcome> blocked;
  std::unordered_map<std::uint64_t, std::uint64_t> txn_map;     // ticket -> id
  std::unordered_map<std::uint64_t, std::uint64_t> notify_map;  // ticket -> id
  // Write ticket -> entry id, only for the writes a kRenew or kCancelLease
  // names: seeded here with id 0 (no entry's id), filled in by the write.
  std::unordered_map<std::uint64_t, std::uint64_t> tuple_map;
  for (const OpRecord* r : records) {
    if (r->kind == Kind::kRenew || r->kind == Kind::kCancelLease) {
      tuple_map.emplace(r->target, 0);
    }
  }
  const detail::LeasePlan leases = detail::plan_leases(records);

  auto mapped = [](const auto& map, std::uint64_t ticket) -> std::uint64_t {
    const auto it = map.find(ticket);
    return it == map.end() ? 0 : it->second;
  };
  auto lease_for = [](const auto& plan, std::uint64_t ticket) {
    const auto it = plan.find(ticket);
    return it == plan.end() ? kLeaseForever : sim::Time::ns(it->second);
  };

  std::size_t applying = 0;  // the record being applied, for a throw
  auto apply = [&](std::size_t i) {
    applying = i;
    const OpRecord& r = *records[i];
    const OpRecord::Match& m = r.match();
    const std::uint64_t txn = mapped(txn_map, r.txn);
    switch (r.kind) {
      case Kind::kWrite: {
        const std::uint64_t id =
            oracle.write(r.tuple, lease_for(leases.write, r.ticket), txn).id;
        const auto it = tuple_map.find(r.ticket);
        if (it != tuple_map.end()) it->second = id;
        break;
      }
      case Kind::kReadIfExists:
        check(i, oracle.read_if_exists(m.tmpl, txn), m.result);
        break;
      case Kind::kTakeIfExists:
        check(i, oracle.take_if_exists(m.tmpl, txn), m.result);
        break;
      case Kind::kTakeExact:
        check(i, oracle.take_if_exists(Template::exact_of(r.tuple), txn),
              r.tuple);
        break;
      case Kind::kReadAll:
        check(i, oracle.read_all(m.tmpl, m.max), m.results);
        break;
      case Kind::kTakeAll:
        check(i, oracle.take_all(m.tmpl, m.max), m.results);
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
        const std::size_t slot = blocked.size();
        blocked.push_back(BlockedOutcome{i, false, std::nullopt});
        auto callback = [&blocked, slot](std::optional<Tuple> result) {
          blocked[slot].completed = true;
          blocked[slot].result = std::move(result);
        };
        if (r.kind == Kind::kBlockingTake) {
          oracle.take_async(m.tmpl, timeout, std::move(callback));
        } else {
          oracle.read_async(m.tmpl, timeout, std::move(callback));
        }
        break;
      }
      case Kind::kBeginTxn:
        txn_map[r.ticket] = oracle.begin_transaction();
        break;
      case Kind::kCommit:
        check(i, oracle.commit(txn), r.ok);
        break;
      case Kind::kAbort:
        check(i, oracle.abort(txn), r.ok);
        break;
      case Kind::kNotifyReg:
        notify_map[r.ticket] = oracle.notify(
            m.tmpl, kLeaseForever,
            [&report, ticket = r.ticket](const Tuple&) {
              ++report.notify_deliveries[ticket];
            });
        break;
      case Kind::kNotifyCancel: {
        const std::uint64_t reg = mapped(notify_map, r.target);
        check(i, reg != 0 && oracle.cancel_notify(reg), r.ok);
        break;
      }
      case Kind::kRenew: {
        const std::uint64_t id = mapped(tuple_map, r.target);
        check(i,
              id != 0 &&
                  oracle.renew(id, lease_for(leases.renew, r.ticket))
                      .has_value(),
              r.ok);
        break;
      }
      case Kind::kCancelLease: {
        const std::uint64_t id = mapped(tuple_map, r.target);
        check(i, id != 0 && oracle.cancel(id), r.ok);
        break;
      }
      case Kind::kLeaseExpire:
        // Nothing to apply: the pre-pass turned this record into the
        // arming's replay duration, so the oracle's own clock reclaims the
        // entry at exactly this instant.
        break;
      case Kind::kSnapshot:
        // Mid-run consistent cut: the threaded engine's sequence-point
        // snapshot must equal the oracle's space at the same ticket.
        check(i, oracle.snapshot(), m.results);
        break;
    }
  };

  // The records stream through the kernel: record i's event schedules
  // record i+1's, then applies record i. One record event is pending at a
  // time, and it is queued ahead of anything apply(i) schedules. That is
  // the order scheduling every record up front gave, because tickets are
  // unique and the oracle's own timers land only on a blocked op's
  // cancel_ticket, which no record carries, or on a kLeaseExpire ticket,
  // whose record applies nothing. (A lease wheel's early wakeup only
  // cascades a slot, which no record can observe.)
  auto at_ticket = [&records](std::size_t i) {
    return sim::Time::ns(static_cast<std::int64_t>(records[i]->ticket));
  };
  std::function<void(std::size_t)> stream = [&](std::size_t i) {
    if (i + 1 < records.size()) {
      sim.schedule_at(at_ticket(i + 1), [&stream, i] { stream(i + 1); });
    }
    apply(i);
  };
  if (!records.empty()) {
    sim.schedule_at(at_ticket(0), [&stream] { stream(0); });
  }
  try {
    sim.run();
  } catch (const std::exception& e) {
    diverge(applying, std::string("oracle replay threw: ") + e.what());
    return report;
  }

  // Blocked-op completions: the oracle must have produced exactly the
  // recorded outcome. A forever-parked waiter whose record says "matched"
  // never completes; a waiter the oracle served but the record says timed
  // out completes with a tuple — both are divergences.
  for (const BlockedOutcome& outcome : blocked) {
    const OpRecord::Match& m = records[outcome.index]->match();
    const std::optional<Tuple> expected =
        m.timed_out ? std::nullopt : m.result;
    if (!outcome.completed) {
      if (!m.timed_out) {
        diverge(outcome.index, "oracle never completed; recorded " +
                                   detail::describe(expected));
      }
      continue;
    }
    check(outcome.index, outcome.result, expected);
  }

  // Final-state equivalence: same live tuples in the same total order.
  check(records.empty() ? 0 : records.size() - 1, oracle.snapshot(),
        final_state);
  report.oracle_stats = oracle.stats();
  return report;
}

/// replay_log through a fresh deterministic SpaceEngine. `config` should
/// match the recorded run's shard_count / use_type_index; execution_mode
/// is forced to kDeterministic.
ReplayReport replay_against_oracle(const OpLog& log, SpaceConfig config,
                                   const std::vector<Tuple>& final_state);

}  // namespace tb::space
