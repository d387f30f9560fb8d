// Quickstart: the tuplespace API in five minutes.
//
// Creates an in-process space, then walks through the Linda/JavaSpaces
// operations the paper builds on: write with a lease, associative read and
// take, blocking take served by a later write, and subscribe/notify.
//
//   ./quickstart
#include <cstdio>

#include "src/sim/process.hpp"
#include "src/space/engine.hpp"
#include "src/space/ops.hpp"

using namespace tb;
using namespace tb::sim::literals;

namespace {

sim::Task<void> tour(sim::Simulator& sim, space::SpaceEngine& space) {
  // --- write ----------------------------------------------------------
  // A tuple is a named, ordered list of typed values. Leases bound its
  // lifetime; kLeaseForever keeps it until taken.
  space::Lease lease = space.write(
      space::make_tuple("sensor", std::int64_t{7}, "temperature", 21.5),
      space::kLeaseForever);
  std::printf("wrote sensor tuple, lease id %llu\n",
              static_cast<unsigned long long>(lease.id));

  // --- associative read -------------------------------------------------
  // Templates match by name, arity and per-field pattern: exact value,
  // typed wildcard, or anything.
  space::Template any_sensor(
      std::string("sensor"),
      {space::FieldPattern::typed(space::ValueType::kInt),
       space::FieldPattern::any(), space::FieldPattern::any()});
  std::optional<space::Tuple> seen = space.read_if_exists(any_sensor);
  std::printf("read (non-destructive): %s\n", seen->to_string().c_str());

  // --- take ------------------------------------------------------------
  // take removes the (oldest) match.
  std::optional<space::Tuple> taken = space.take_if_exists(any_sensor);
  std::printf("take removed it; space now holds %zu tuples\n", space.size());

  // --- blocking take -----------------------------------------------------
  // co_await parks this coroutine until a producer writes a match.
  sim.schedule_in(100_ms, [&space] {
    space.write(space::make_tuple("job", std::int64_t{1}, "grind"));
  });
  std::printf("[t=%s] waiting for a job...\n", sim.now().to_string().c_str());
  // (Built before the co_await: GCC 12 miscompiles initializer lists that
  // live across a suspension point.)
  std::vector<space::FieldPattern> job_fields;
  job_fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
  job_fields.push_back(space::FieldPattern::typed(space::ValueType::kString));
  space::Template job_template(std::string("job"), std::move(job_fields));
  std::optional<space::Tuple> job =
      co_await space::take(space, std::move(job_template), 10_s);
  std::printf("[t=%s] got %s\n", sim.now().to_string().c_str(),
              job->to_string().c_str());

  // --- notify -------------------------------------------------------------
  // Callbacks fire for every matching write (the subscribe/notify paradigm
  // of paper §2).
  space.notify(space::Template(std::string("alarm"),
                               {space::FieldPattern::any()}),
               space::kLeaseForever, [&sim](const space::Tuple& t) {
                 std::printf("[t=%s] ALARM event: %s\n",
                             sim.now().to_string().c_str(),
                             t.to_string().c_str());
               });
  space.write(space::make_tuple("alarm", "overtemp"));
  co_await sim::delay(sim, 1_ms);  // let the event dispatch

  // --- leases expire --------------------------------------------------------
  space.write(space::make_tuple("ephemeral", std::int64_t{1}), 500_ms);
  std::printf("wrote 500 ms entry; space holds %zu tuples\n", space.size());
  co_await sim::delay(sim, 1_s);
  std::printf("1 s later the lease ran out; space holds %zu tuples\n",
              space.size());

  // --- transactions ----------------------------------------------------------
  // Writes stay private until commit; takes hold their entry until the
  // transaction resolves (abort puts it back).
  const std::uint64_t txn = space.begin_transaction(10_s);
  space.write(space::make_tuple("order", std::int64_t{1}, "pending"),
              space::kLeaseForever, txn);
  space::Template any_order(std::string("order"),
                            {space::FieldPattern::any(),
                             space::FieldPattern::any()});
  std::printf("inside txn: visible to me=%d, to others=%d\n",
              space.read_if_exists(any_order, txn).has_value(),
              space.read_if_exists(any_order).has_value());
  space.commit(txn);
  std::printf("after commit: visible to everyone=%d\n",
              space.read_if_exists(any_order).has_value());
}

}  // namespace

int main() {
  sim::Simulator sim;
  space::SpaceEngine space(sim);
  sim::spawn(tour(sim, space));
  sim.run();

  const auto& stats = space.stats();
  std::printf("\nstats: %llu writes, %llu reads, %llu takes, %llu events\n",
              static_cast<unsigned long long>(stats.writes),
              static_cast<unsigned long long>(stats.reads),
              static_cast<unsigned long long>(stats.takes),
              static_cast<unsigned long long>(stats.notifications));
  return 0;
}
