#include "src/fault/invariants.hpp"

#include <cstdio>
#include <sstream>

#include "src/wire/frame.hpp"

namespace tb::fault {

void InvariantChecker::watch_bus(wire::BusModel& bus) {
  bus.on_cycle().connect([this](const wire::CycleTrace& cycle) {
    ++stats_.cycles_checked;
    if (cycle.status != wire::CycleResult::Status::kOk) return;
    if (!cycle.expect_reply) return;  // broadcast cycles carry no RX
    if (!cycle.rx_seen) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "bus: Ok verdict without an RX word (tx=%04x at %.9f)",
                    cycle.tx_word, cycle.end.seconds());
      violate(buf);
      return;
    }
    wire::FrameError error;
    if (!wire::RxFrame::decode(cycle.rx_word, &error)) {
      char buf[112];
      std::snprintf(buf, sizeof buf,
                    "bus: accepted RX %04x that fails %s (tx=%04x at %.9f)",
                    cycle.rx_word, wire::to_string(error), cycle.tx_word,
                    cycle.end.seconds());
      violate(buf);
    }
  });
}

void InvariantChecker::watch_master(wire::Master& master) {
  const wire::LinkConfig& link = master.bus().link();
  const int max_attempts = 1 + link.retry_limit;
  const sim::Time deadline =
      link.reset_timeout().scaled(config_.op_deadline_factor);
  master.on_transact().connect(
      [this, max_attempts, deadline](const wire::Master::TransactTrace& t) {
        ++stats_.transactions_checked;
        if (t.attempts > max_attempts) {
          char buf[112];
          std::snprintf(buf, sizeof buf,
                        "master: transaction tx=%04x used %d attempts "
                        "(budget %d)",
                        t.tx_word, t.attempts, max_attempts);
          violate(buf);
        }
        const sim::Time took = t.end - t.start;
        if (took > deadline) {
          char buf[128];
          std::snprintf(buf, sizeof buf,
                        "master: transaction tx=%04x took %.9f s "
                        "(deadline %.9f s)",
                        t.tx_word, took.seconds(), deadline.seconds());
          violate(buf);
        }
      });
}

void InvariantChecker::watch_space(space::SpaceEngine& space) {
  spaces_.push_back(&space);
}

void InvariantChecker::finish() {
  for (space::SpaceEngine* space : spaces_) {
    ++stats_.spaces_checked;
    const space::SpaceEngine::Stats& s = space->stats();
    // Conservation is exact only when no transaction machinery is left
    // mid-flight: an abort restores held takes by republishing without
    // counting a write, so aborted runs under-constrain the ledger.
    if (s.aborts != 0 || space->open_transactions() != 0) continue;
    const std::uint64_t accounted =
        s.takes + s.expirations + s.cancellations + space->size();
    if (s.writes != accounted) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "space: conservation broken — %llu writes vs %llu "
                    "accounted (takes=%llu expired=%llu cancelled=%llu "
                    "resident=%zu)",
                    static_cast<unsigned long long>(s.writes),
                    static_cast<unsigned long long>(accounted),
                    static_cast<unsigned long long>(s.takes),
                    static_cast<unsigned long long>(s.expirations),
                    static_cast<unsigned long long>(s.cancellations),
                    space->size());
      violate(buf);
    }
  }
}

std::string InvariantChecker::report() const {
  if (violation_count_ == 0) return {};
  std::ostringstream os;
  os << violation_count_ << " invariant violation(s):\n";
  for (const std::string& v : violations_) os << "  " << v << '\n';
  if (violation_count_ > violations_.size()) {
    os << "  ... and " << (violation_count_ - violations_.size())
       << " more\n";
  }
  return os.str();
}

void InvariantChecker::violate(std::string message) {
  // Stop recording messages after this many (the count keeps going).
  constexpr std::size_t kMaxRecorded = 32;
  ++violation_count_;
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(std::move(message));
  }
}

}  // namespace tb::fault
