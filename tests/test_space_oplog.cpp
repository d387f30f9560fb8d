// OpLog storage and OpRecord layout: chunked append keeps every record
// where it is, by_ticket() restores the global order across chunks, and
// copying a record deep-copies its side payload. The replay checker
// schedules no record event, rejects a repeated ticket, flags a corrupted
// exact take on its ticket through both oracles and frees each record
// handed to it, and its lease pre-pass plans only the armings a
// kLeaseExpire record ends, flagging an expiry whose arming an earlier
// batch applied.
#include "src/space/oplog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "heap_probe.hpp"
#include "naive_space.hpp"
#include "src/sim/simulator.hpp"

namespace tb::space {
namespace {

OpRecord write_record(std::uint64_t ticket, const char* name,
                      std::int64_t value) {
  OpRecord record;
  record.ticket = ticket;
  record.kind = OpRecord::Kind::kWrite;
  record.tuple = make_tuple(name, value);
  return record;
}

OpRecord write_record(std::uint64_t ticket) {
  return write_record(ticket, "w", static_cast<std::int64_t>(ticket));
}

std::map<std::uint64_t, const OpRecord*> addresses(const OpLog& log) {
  std::map<std::uint64_t, const OpRecord*> out;
  for (const OpRecord* record : log.by_ticket()) out[record->ticket] = record;
  return out;
}

TEST(OpLog, AppendAcrossChunkBoundariesKeepsEveryAddress) {
  constexpr std::size_t kChunk = OpLog::kChunkRecords;
  OpLog log;
  for (std::uint64_t t = 1; t <= kChunk + 5; ++t) {
    log.append(write_record(t));
  }
  const std::map<std::uint64_t, const OpRecord*> before = addresses(log);
  ASSERT_EQ(before.size(), kChunk + 5);

  // Appends fill the partial chunk and open new ones; nothing already in
  // the log moves.
  for (std::uint64_t t = kChunk + 6; t <= 3 * kChunk + 8; ++t) {
    log.append(write_record(t));
  }
  EXPECT_EQ(log.size(), 3 * kChunk + 8);
  const std::map<std::uint64_t, const OpRecord*> after = addresses(log);
  for (const auto& [ticket, record] : before) {
    EXPECT_EQ(after.at(ticket), record) << ticket;
  }
}

TEST(OpLog, ByTicketOrdersTicketsInterleavedAcrossChunks) {
  constexpr std::size_t kRecords = 3 * OpLog::kChunkRecords + 17;
  std::vector<std::uint64_t> tickets(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) tickets[i] = 3 * i + 7;
  std::mt19937_64 rng(5);
  std::shuffle(tickets.begin(), tickets.end(), rng);

  // Appended out of ticket order, across four chunks.
  OpLog log;
  for (std::uint64_t ticket : tickets) log.append(write_record(ticket));

  const std::vector<const OpRecord*> ordered = log.by_ticket();
  ASSERT_EQ(ordered.size(), kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(ordered[i]->ticket, 3 * i + 7);
    EXPECT_EQ(ordered[i]->tuple.fields[0].as_int(),
              static_cast<std::int64_t>(3 * i + 7));
  }
}

TEST(OpRecord, CopyDeepCopiesTheSidePayload) {
  OpRecord original;
  original.ticket = 9;
  original.kind = OpRecord::Kind::kTakeAll;
  OpRecord::Match& m = original.match();
  m.tmpl = Template("job", {FieldPattern::typed(ValueType::kInt)});
  m.max = 4;
  m.results = {make_tuple("job", std::int64_t{1}),
               make_tuple("job", std::int64_t{2})};

  OpRecord copy = original;
  ASSERT_TRUE(copy.has_match());
  EXPECT_NE(&copy.match(), &original.match());
  EXPECT_EQ(copy.match().tmpl, m.tmpl);
  EXPECT_EQ(copy.match().max, 4u);
  EXPECT_EQ(copy.match().results, m.results);

  copy.match().results[0].fields[0] = Value(std::int64_t{-1});
  copy.match().tmpl.name = "other";
  EXPECT_EQ(original.match().results[0].fields[0].as_int(), 1);
  EXPECT_EQ(original.match().tmpl.name, "job");

  OpRecord assigned = write_record(3);
  assigned = original;
  ASSERT_TRUE(assigned.has_match());
  EXPECT_NE(&assigned.match(), &original.match());
  EXPECT_EQ(assigned.match().results, original.match().results);
  EXPECT_EQ(assigned.ticket, 9u);
}

TEST(OpRecord, WritesAndExactTakesCarryNoSidePayload) {
  const OpRecord write = write_record(1);
  OpRecord take;
  take.kind = OpRecord::Kind::kTakeExact;
  take.tuple = make_tuple("w", std::int64_t{1});
  const OpRecord* records[] = {&write, &take};
  for (const OpRecord* record : records) {
    EXPECT_FALSE(record->has_match());
    // The const view of a missing payload is an empty one, not an
    // allocation.
    EXPECT_FALSE(record->match().result.has_value());
    EXPECT_FALSE(record->has_match());
    const OpRecord copy = *record;
    EXPECT_FALSE(copy.has_match());
    EXPECT_EQ(copy.tuple, record->tuple);
  }
}

TEST(OpLogMemory, HeapPerFedShapedRecord) {
#if !defined(TB_TEST_HAS_MALLINFO2)
  GTEST_SKIP() << "needs glibc's mallinfo2 and its own allocator";
#else
  // A fed_replicated job write: (job-<n>, int, int, 16-256 B blob). The
  // record is 96 B of a 64 KiB chunk; its tuple adds a 64 B field vector,
  // the blob's 32 B vector box and the blob itself (~152 B on average). The
  // name fits the string's inline buffer. With 40 B variant Values (a 128 B
  // field vector, no box) it was ~377 B.
  constexpr int kRecords = 56'000;
  OpLog log;
  const std::size_t before = mallinfo2().uordblks;
  for (int i = 0; i < kRecords; ++i) {
    OpRecord record;
    record.ticket = static_cast<std::uint64_t>(i) + 1;
    record.kind = OpRecord::Kind::kWrite;
    const auto seq = static_cast<std::int64_t>(i);
    std::vector<std::uint8_t> blob(16 + static_cast<std::size_t>(i * 97 % 241),
                                   static_cast<std::uint8_t>(i));
    record.tuple = make_tuple("job-" + std::to_string(i % 256), seq % 4, seq,
                              std::move(blob));
    log.append(std::move(record));
  }
  const std::size_t after = mallinfo2().uordblks;
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kRecords));
  const double per_record = static_cast<double>(after - before) / kRecords;
  RecordProperty("heap_bytes_per_record", std::to_string(per_record));
  EXPECT_LE(per_record, 355.0);
#endif
}

OpRecord take_record(std::uint64_t ticket, Tuple taken) {
  OpRecord record;
  record.ticket = ticket;
  record.kind = OpRecord::Kind::kTakeExact;
  record.tuple = std::move(taken);
  return record;
}

OpRecord id_record(OpRecord::Kind kind, std::uint64_t ticket,
                   std::uint64_t target, bool ok) {
  OpRecord record;
  record.ticket = ticket;
  record.kind = kind;
  record.target = target;
  record.ok = ok;
  return record;
}

std::vector<const OpRecord*> pointers(const std::vector<OpRecord>& records) {
  std::vector<const OpRecord*> out;
  out.reserve(records.size());
  for (const OpRecord& record : records) out.push_back(&record);
  return out;
}

// The replay schedules no kernel event per record, however long the log
// is: the checker runs the oracle's clock up to each record's ticket and
// applies it in place. (Each record's event used to schedule the next
// one's; before that, every record was scheduled up front.)
TEST(OpLogReplay, SchedulesNoRecordEvents) {
  constexpr std::int64_t kWrites = 12'000;
  constexpr std::int64_t kLag = 64;  // a take trails its write by kLag writes
  OpLog log;
  std::uint64_t ticket = 0;
  for (std::int64_t i = 0; i < kWrites + kLag; ++i) {
    if (i < kWrites) log.append(write_record(++ticket, "job", i));
    if (i >= kLag) {
      log.append(take_record(++ticket, make_tuple("job", i - kLag)));
    }
  }
  ASSERT_EQ(log.size(), static_cast<std::size_t>(2 * kWrites));

  sim::Simulator sim;
  SpaceEngine oracle(sim, SpaceConfig{});
  const ReplayReport report = replay_log(log, sim, oracle, {});
  EXPECT_TRUE(report.equivalent) << report.divergence;
  EXPECT_EQ(report.ops_replayed, static_cast<std::size_t>(2 * kWrites));
  EXPECT_EQ(report.oracle_stats.writes, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(report.oracle_stats.takes, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.peak_pending_events(), 0u);
}

// Tickets are unique: two writes on one ticket replay as a divergence on
// the second, even when every result still agrees (here their two exact
// takes, and an empty final state).
TEST(OpLogReplay, RepeatedTicketDiverges) {
  OpLog log;
  log.append(write_record(1, "job", 1));
  log.append(write_record(1, "job", 2));
  log.append(take_record(2, make_tuple("job", std::int64_t{1})));
  log.append(take_record(3, make_tuple("job", std::int64_t{2})));
  const ReplayReport report =
      replay_against_oracle(log, SpaceConfig{}, /*final_state=*/{});
  EXPECT_FALSE(report.equivalent);
  EXPECT_EQ(report.divergence,
            "op[1] ticket 1 (write): ticket repeats the previous record's");
  EXPECT_EQ(report.ops_replayed, 4u);
}

// A take record holds only its result, and both oracles check it: one
// exact take whose logged tuple is corrupted makes SpaceEngine and the
// naive reference model diverge on exactly that record's op index, ticket
// and kind, and the log uncorrupted replays clean through both.
TEST(OpLogReplay, CorruptTakeExactDivergesOnItsTicketInBothOracles) {
  constexpr std::int64_t kJobs = 24;
  auto job = [](std::int64_t i) {
    return make_tuple("blob-" + std::to_string(i % 3), i,
                      std::vector<std::uint8_t>(64, 7));
  };
  std::vector<Tuple> final_state;
  for (std::int64_t i = kJobs / 2; i < kJobs; ++i) {
    final_state.push_back(job(i));
  }
  constexpr std::uint64_t kBadTicket = kJobs + 5;  // the fifth take
  for (const bool corrupted : {false, true}) {
    SCOPED_TRACE(corrupted ? "corrupted" : "clean");
    OpLog log;
    std::uint64_t ticket = 0;
    for (std::int64_t i = 0; i < kJobs; ++i) {
      OpRecord write = write_record(++ticket);
      write.tuple = job(i);
      log.append(std::move(write));
    }
    for (std::int64_t i = 0; i < kJobs / 2; ++i) {
      OpRecord take = take_record(++ticket, job(i));
      EXPECT_FALSE(take.has_match());
      if (corrupted && take.ticket == kBadTicket) {
        take.tuple.fields[1] = Value(std::int64_t{-1});
      }
      log.append(std::move(take));
    }

    const ReplayReport engine =
        replay_against_oracle(log, SpaceConfig{}, final_state);
    sim::Simulator naive_sim;
    NaiveSpace naive(naive_sim);
    const ReplayReport reference =
        replay_log(log, naive_sim, naive, final_state);
    for (const ReplayReport* report : {&engine, &reference}) {
      EXPECT_EQ(report->ops_replayed, static_cast<std::size_t>(kJobs * 3 / 2));
      if (!corrupted) {
        EXPECT_TRUE(report->equivalent) << report->divergence;
        continue;
      }
      EXPECT_FALSE(report->equivalent);
      EXPECT_EQ(report->divergence.rfind(
                    "op[" + std::to_string(kBadTicket - 1) + "] ticket " +
                        std::to_string(kBadTicket) + " (take_exact): ",
                    0),
                0u)
          << report->divergence;
    }
    EXPECT_EQ(engine.divergence, reference.divergence);
  }
}

// A record handed to the checker is checked and freed: a write's tuple
// moves into the oracle (its blob is the same allocation when the oracle
// gives it back).
TEST(ReplayChecker, HandedOverWriteMovesItsTupleIntoTheOracle) {
  sim::Simulator sim;
  SpaceEngine oracle(sim, SpaceConfig{});
  ReplayChecker<SpaceEngine> checker(sim, oracle);
  OpRecord record = write_record(1);
  record.tuple = tb::space::make_tuple("job", std::int64_t{1},
                                       std::vector<std::uint8_t>(200, 7));
  const Tuple written = record.tuple;
  const std::uint8_t* blob = record.tuple.fields[1].as_bytes().data();
  checker.check(std::move(record));
  EXPECT_EQ(checker.checked(), 1u);
  EXPECT_EQ(checker.last_ticket(), 1u);
  EXPECT_TRUE(checker.report().equivalent) << checker.report().divergence;

  // A take moves the stored buffers out (SpaceTest covers that).
  const std::optional<Tuple> stored =
      oracle.take_if_exists(Template::exact_of(written));
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->fields[1].as_bytes().data(), blob);
}

// An expiry whose arming an earlier batch applied cannot replay: the
// arming went in as forever. It diverges on the expiry's ticket. The same
// records in one batch replay clean.
TEST(ReplayChecker, ExpiryPastTheCheckedPrefixDiverges) {
  using Kind = OpRecord::Kind;
  std::vector<OpRecord> records;
  records.push_back(write_record(10, "a", 1));
  records.push_back(write_record(11, "b", 1));
  records.push_back(id_record(Kind::kLeaseExpire, 20, 10, true));

  EngineChecker whole(SpaceConfig{});
  whole.checker().check(pointers(records));
  const ReplayReport one_batch =
      whole.checker().finish({make_tuple("b", std::int64_t{1})});
  EXPECT_TRUE(one_batch.equivalent) << one_batch.divergence;
  EXPECT_EQ(one_batch.oracle_stats.expirations, 1u);

  EngineChecker split(SpaceConfig{});
  split.checker().check({&records[0], &records[1]});
  split.checker().check({&records[2]});
  const ReplayReport two_batches =
      split.checker().finish({make_tuple("b", std::int64_t{1})});
  EXPECT_FALSE(two_batches.equivalent);
  EXPECT_EQ(two_batches.divergence,
            "op[2] ticket 20 (lease_expire): lease expiry past the checked "
            "prefix: write 10 was armed in an earlier batch");
}

TEST(LeasePlan, ForeverLeasesPlanNothing) {
  std::vector<OpRecord> records;
  std::uint64_t ticket = 0;
  for (std::int64_t i = 0; i < 10'000; ++i) {
    records.push_back(write_record(++ticket, "job", i));
    records.push_back(take_record(++ticket, make_tuple("job", i)));
  }
  const detail::LeasePlan plan = detail::plan_leases(pointers(records));
  EXPECT_TRUE(plan.write.empty());
  EXPECT_TRUE(plan.renew.empty());
}

// Each expiry's duration runs from the entry's latest successful arming:
// its write, or the renew that re-armed it. A failed renew arms nothing,
// and a transactional write or a taken entry replays as forever.
TEST(LeasePlan, DurationsRunFromTheLatestArming) {
  using Kind = OpRecord::Kind;
  std::vector<OpRecord> records;
  records.push_back(write_record(10, "a", 1));  // renewed, then expires
  records.push_back(write_record(11, "b", 1));  // taken
  OpRecord txn_write = write_record(12, "e", 1);
  txn_write.txn = 5;  // transactional: forever in threaded mode
  records.push_back(std::move(txn_write));
  records.push_back(id_record(Kind::kRenew, 15, 10, /*ok=*/true));
  records.push_back(take_record(16, make_tuple("b", std::int64_t{1})));
  records.push_back(write_record(20, "c", 1));  // failed renew, expires
  records.push_back(id_record(Kind::kRenew, 25, 20, /*ok=*/false));
  records.push_back(id_record(Kind::kLeaseExpire, 30, 20, true));
  records.push_back(id_record(Kind::kLeaseExpire, 40, 10, true));
  records.push_back(id_record(Kind::kLeaseExpire, 50, 12, true));

  const detail::LeasePlan plan = detail::plan_leases(pointers(records));
  using Plan = std::unordered_map<std::uint64_t, std::int64_t>;
  EXPECT_EQ(plan.write, (Plan{{20, 10}}));
  EXPECT_EQ(plan.renew, (Plan{{15, 25}}));
  EXPECT_TRUE(plan.stranded.empty());

  // Cut before the renew: the expiry of write 10 is then stranded, and the
  // one of write 20, armed in the same batch, is not.
  const std::vector<const OpRecord*> all = pointers(records);
  const detail::LeasePlan tail = detail::plan_leases(
      std::vector<const OpRecord*>(all.begin() + 4, all.end()));
  EXPECT_EQ(tail.stranded, (std::unordered_set<std::uint64_t>{40, 50}));
}

}  // namespace
}  // namespace tb::space
