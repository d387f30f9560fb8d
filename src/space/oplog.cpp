#include "src/space/oplog.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace tb::space {

namespace detail {

std::string describe(const Tuple& t) { return t.to_string(); }

std::string describe(const std::optional<Tuple>& t) {
  return t.has_value() ? t->to_string() : std::string("<none>");
}

std::string describe(const std::vector<Tuple>& ts) {
  std::string out = "[";
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (i) out += ", ";
    out += ts[i].to_string();
  }
  return out + "]";
}

std::string describe(bool ok) { return ok ? "true" : "false"; }

const char* kind_name(OpRecord::Kind kind) {
  switch (kind) {
    case OpRecord::Kind::kWrite: return "write";
    case OpRecord::Kind::kReadIfExists: return "read_if_exists";
    case OpRecord::Kind::kTakeIfExists: return "take_if_exists";
    case OpRecord::Kind::kReadAll: return "read_all";
    case OpRecord::Kind::kTakeAll: return "take_all";
    case OpRecord::Kind::kBlockingRead: return "blocking_read";
    case OpRecord::Kind::kBlockingTake: return "blocking_take";
    case OpRecord::Kind::kBeginTxn: return "begin_txn";
    case OpRecord::Kind::kCommit: return "commit";
    case OpRecord::Kind::kAbort: return "abort";
    case OpRecord::Kind::kNotifyReg: return "notify_reg";
    case OpRecord::Kind::kNotifyCancel: return "notify_cancel";
    case OpRecord::Kind::kRenew: return "renew";
    case OpRecord::Kind::kCancelLease: return "cancel_lease";
    case OpRecord::Kind::kLeaseExpire: return "lease_expire";
    case OpRecord::Kind::kSnapshot: return "snapshot";
    case OpRecord::Kind::kTakeExact: return "take_exact";
  }
  return "?";
}

LeasePlan plan_leases(const std::vector<const OpRecord*>& records) {
  // Only an entry that a kLeaseExpire record names gets a replay duration,
  // so only those entries' armings are tracked.
  LeasePlan plan;
  std::unordered_set<std::uint64_t> expiring;  // by write ticket
  for (const OpRecord* r : records) {
    if (r->kind == OpRecord::Kind::kLeaseExpire) expiring.insert(r->target);
  }
  if (expiring.empty()) return plan;
  // Walk the records in ticket order; `arming` tracks the latest arming
  // ticket per live expiring entry (keyed by write ticket).
  std::unordered_map<std::uint64_t, std::uint64_t> arming;
  for (const OpRecord* record : records) {
    const OpRecord& r = *record;
    switch (r.kind) {
      case OpRecord::Kind::kWrite:
        // Transactional writes are forever-lease in threaded mode; a
        // post-commit renewal re-arms them below.
        if (r.txn == kNoTxn && expiring.contains(r.ticket)) {
          arming[r.ticket] = r.ticket;
        }
        break;
      case OpRecord::Kind::kRenew:
        if (r.ok && expiring.contains(r.target)) arming[r.target] = r.ticket;
        break;
      case OpRecord::Kind::kLeaseExpire: {
        const auto it = arming.find(r.target);
        if (it == arming.end()) {
          // Written before the batch and not re-armed in it.
          if (r.target < records.front()->ticket) {
            plan.stranded.insert(r.ticket);
          }
          break;
        }
        const std::uint64_t armed_at = it->second;
        const std::int64_t duration = static_cast<std::int64_t>(
            r.ticket > armed_at ? r.ticket - armed_at : 1);
        (armed_at == r.target ? plan.write : plan.renew)[armed_at] = duration;
        arming.erase(it);
        break;
      }
      default:
        break;
    }
  }
  return plan;
}

}  // namespace detail

OpRecord::OpRecord(const OpRecord& other)
    : ticket(other.ticket),
      txn(other.txn),
      target(other.target),
      kind(other.kind),
      ok(other.ok),
      tuple(other.tuple),
      match_(other.match_ ? std::make_unique<Match>(*other.match_) : nullptr) {
}

OpRecord& OpRecord::operator=(const OpRecord& other) {
  if (this != &other) *this = OpRecord(other);
  return *this;
}

void OpLog::append(OpRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  // A chunk's capacity is reserved once, so filling it never reallocates.
  if (chunks_.empty() || chunks_.back().size() == kChunkRecords) {
    chunks_.emplace_back().reserve(kChunkRecords);
  }
  chunks_.back().push_back(std::move(record));
  ++size_;
}

void OpLog::carry(std::shared_ptr<EngineChecker> checked) {
  std::lock_guard<std::mutex> lock(mu_);
  TB_REQUIRE(checked_ == nullptr);
  checked_ = std::move(checked);
}

std::vector<const OpRecord*> OpLog::by_ticket() const {
  std::vector<const OpRecord*> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(size_);
    for (const Chunk& chunk : chunks_) {
      for (const OpRecord& record : chunk) out.push_back(&record);
    }
  }
  std::sort(out.begin(), out.end(), [](const OpRecord* a, const OpRecord* b) {
    return a->ticket < b->ticket;
  });
  return out;
}

EngineChecker::EngineChecker(SpaceConfig config)
    : oracle_(sim_,
              [&config] {
                config.execution_mode = ExecutionMode::kDeterministic;
                return config;
              }()),
      checker_(sim_, oracle_) {}

ReplayReport replay_against_oracle(const OpLog& log, SpaceConfig config,
                                   const std::vector<Tuple>& final_state) {
  std::shared_ptr<EngineChecker> checker = log.checked_prefix();
  if (!checker) checker = std::make_shared<EngineChecker>(config);
  checker->checker().check(log.by_ticket());
  return checker->checker().finish(final_state);
}

}  // namespace tb::space
