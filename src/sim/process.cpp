#include "src/sim/process.hpp"

namespace tb::sim {

namespace {
detail::Process run_task(Task<void> task) { co_await std::move(task); }
}  // namespace

void spawn(Task<void> task) {
  TB_REQUIRE_MSG(task.valid(), "cannot spawn an empty task");
  const detail::NestedResume nested;  // the process starts inline
  run_task(std::move(task));
}

}  // namespace tb::sim
