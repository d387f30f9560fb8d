#include "src/space/oplog.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace tb::space {

namespace detail {

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
  // Walk the records in ticket order; `arming` tracks the latest arming
  // ticket per live entry (keyed by write ticket).
  LeasePlan plan;
  std::unordered_map<std::uint64_t, std::uint64_t> arming;
  for (const OpRecord* record : records) {
    const OpRecord& r = *record;
    switch (r.kind) {
      case OpRecord::Kind::kWrite:
        // Transactional writes are forever-lease in threaded mode; a
        // post-commit renewal re-arms them below.
        if (r.txn == kNoTxn) arming[r.ticket] = r.ticket;
        break;
      case OpRecord::Kind::kRenew:
        if (r.ok) arming[r.target] = r.ticket;
        break;
      case OpRecord::Kind::kLeaseExpire: {
        const auto it = arming.find(r.target);
        if (it == arming.end()) break;
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

void OpLog::splice(OpLog& from) {
  if (&from == this) return;
  std::scoped_lock lock(mu_, from.mu_);
  records_.reserve(records_.size() + from.records_.size());
  std::move(from.records_.begin(), from.records_.end(),
            std::back_inserter(records_));
  from.records_ = {};
}

std::vector<const OpRecord*> OpLog::by_ticket() const {
  std::vector<const OpRecord*> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(records_.size());
    for (const OpRecord& record : records_) out.push_back(&record);
  }
  std::sort(out.begin(), out.end(), [](const OpRecord* a, const OpRecord* b) {
    return a->ticket < b->ticket;
  });
  return out;
}

ReplayReport replay_against_oracle(const OpLog& log, SpaceConfig config,
                                   const std::vector<Tuple>& final_state) {
  config.execution_mode = ExecutionMode::kDeterministic;
  sim::Simulator sim;
  SpaceEngine oracle(sim, config);
  return replay_log(log, sim, oracle, final_state);
}

}  // namespace tb::space
