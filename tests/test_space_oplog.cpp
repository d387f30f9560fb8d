// OpLog storage and OpRecord layout: chunked append and splice keep every
// record where it is, by_ticket() restores the global order across chunks
// and logs, and copying a record deep-copies its side payload. The replay
// streams its records (one record event pending) and its lease pre-pass
// plans only the armings a kLeaseExpire record ends.
#include "src/space/oplog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "heap_probe.hpp"
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

TEST(OpLog, SpliceAcrossChunkBoundariesKeepsEveryAddress) {
  constexpr std::size_t kChunk = OpLog::kChunkRecords;
  OpLog into;
  OpLog from;
  for (std::uint64_t t = 1; t <= kChunk + 5; ++t) {
    into.append(write_record(2 * t));
  }
  for (std::uint64_t t = 1; t <= 2 * kChunk + 3; ++t) {
    from.append(write_record(2 * t + 1));
  }
  std::map<std::uint64_t, const OpRecord*> before = addresses(into);
  const std::map<std::uint64_t, const OpRecord*> moved = addresses(from);
  before.insert(moved.begin(), moved.end());
  ASSERT_EQ(before.size(), 3 * kChunk + 8);

  into.splice(from);
  EXPECT_EQ(from.size(), 0u);
  EXPECT_TRUE(from.by_ticket().empty());
  EXPECT_EQ(into.size(), 3 * kChunk + 8);
  EXPECT_EQ(addresses(into), before);

  // Appends after the splice fill the spliced-in partial chunk and open new
  // ones; nothing already in the log moves.
  for (std::uint64_t t = 1; t <= kChunk; ++t) {
    into.append(write_record(10 * kChunk + t));
  }
  const std::map<std::uint64_t, const OpRecord*> after = addresses(into);
  for (const auto& [ticket, record] : before) {
    EXPECT_EQ(after.at(ticket), record) << ticket;
  }
  // The emptied log is usable again.
  from.append(write_record(1));
  EXPECT_EQ(from.size(), 1u);
}

TEST(OpLog, ByTicketOrdersTicketsInterleavedAcrossChunksAndLogs) {
  constexpr std::size_t kRecords = 3 * OpLog::kChunkRecords + 17;
  std::vector<std::uint64_t> tickets(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) tickets[i] = 3 * i + 7;
  std::mt19937_64 rng(5);
  std::shuffle(tickets.begin(), tickets.end(), rng);

  // Three logs, dealt round-robin, each appended out of ticket order.
  OpLog logs[3];
  for (std::size_t i = 0; i < kRecords; ++i) {
    logs[i % 3].append(write_record(tickets[i]));
  }
  OpLog merged;
  for (OpLog& log : logs) merged.splice(log);

  const std::vector<const OpRecord*> ordered = merged.by_ticket();
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

// The replay keeps one record event pending however long the log is: each
// record's event schedules the next record's. Scheduling every record up
// front made the kernel's peak the record count.
TEST(OpLogReplay, KeepsOneRecordEventPending) {
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
  EXPECT_LE(sim.peak_pending_events(), 2u);
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
}

}  // namespace
}  // namespace tb::space
