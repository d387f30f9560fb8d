#include "src/svc/failover.hpp"

#include "src/util/assert.hpp"

namespace tb::svc {

namespace {

space::Tuple start_tuple(const std::string& role) {
  return space::Tuple("fo-start", {role});
}

space::Template start_template(const std::string& role) {
  return space::Template(std::string("fo-start"),
                         {space::FieldPattern::exact(space::Value(role))});
}

space::Tuple heartbeat_tuple(const std::string& role, const std::string& id) {
  return space::Tuple("fo-heartbeat", {role, id, std::string("operating OK")});
}

space::Template heartbeat_template(const std::string& role) {
  return space::Template(
      std::string("fo-heartbeat"),
      {space::FieldPattern::exact(space::Value(role)),
       space::FieldPattern::typed(space::ValueType::kString),
       space::FieldPattern::typed(space::ValueType::kString)});
}

}  // namespace

const char* ActuatorAgent::to_string(State state) {
  switch (state) {
    case State::kIdle: return "idle";
    case State::kElecting: return "electing";
    case State::kBackup: return "backup";
    case State::kOperating: return "operating";
    case State::kFailed: return "failed";
  }
  return "?";
}

ActuatorAgent::ActuatorAgent(SpaceApi& api, std::string agent_id, int rank,
                             FailoverConfig config,
                             std::function<void(std::uint64_t)> actuate)
    : api_(&api),
      id_(std::move(agent_id)),
      rank_(rank),
      config_(config),
      actuate_(std::move(actuate)) {
  TB_REQUIRE(rank >= 0);
  TB_REQUIRE(config.tick > sim::Time::zero());
  TB_REQUIRE(config.grace >= config.tick);
}

void ActuatorAgent::start() {
  TB_REQUIRE_MSG(state_ == State::kIdle, "agent already started");
  state_ = State::kElecting;
  sim::spawn(run());
}

sim::Task<void> ActuatorAgent::run() {
  // Step 2: race to take the start tuple; the space's FIFO take arbitration
  // elects exactly one winner.
  std::optional<space::Tuple> won =
      co_await api_->take(start_template(config_.role), config_.election_timeout);
  if (state_ == State::kFailed) co_return;
  if (won.has_value()) {
    state_ = State::kOperating;
    stats_.became_operating_at = api_->simulator().now();
    co_await operate();
    co_return;
  }
  // Lost the race (or nobody armed yet): stand by as backup.
  state_ = State::kBackup;
  co_await stand_by();
}

sim::Task<void> ActuatorAgent::operate() {
  // Step 3: execute program semantics; write the state tuple each tick.
  std::uint64_t tick_number = 0;
  while (state_ == State::kOperating) {
    if (actuate_) actuate_(tick_number);
    ++stats_.ticks_operated;
    ++tick_number;
    const util::Status wrote = co_await api_->write_status(
        heartbeat_tuple(config_.role, id_), config_.heartbeat_lease);
    if (!wrote.ok()) ++stats_.heartbeats_dropped;
    co_await sim::delay(api_->simulator(), config_.tick);
  }
}

sim::Task<void> ActuatorAgent::stand_by() {
  // Step 4: consume the dual's heartbeats; a dry grace window means the
  // operating actuator died — begin recovery.
  const sim::Time window =
      config_.grace + config_.grace * static_cast<std::int64_t>(rank_);
  while (state_ == State::kBackup) {
    std::optional<space::Tuple> heartbeat =
        co_await api_->take(heartbeat_template(config_.role), window);
    if (state_ != State::kBackup) co_return;  // failed while waiting
    if (heartbeat.has_value()) {
      ++stats_.heartbeats_consumed;
      continue;
    }
    // Recovery procedure: become operating and start executing.
    ++stats_.takeovers;
    state_ = State::kOperating;
    stats_.became_operating_at = api_->simulator().now();
    co_await operate();
    co_return;
  }
}

space::Tuple StandbyGuard::heartbeat(std::uint32_t node_id) {
  return space::Tuple("fed-heartbeat",
                      {static_cast<std::int64_t>(node_id),
                       std::string("operating OK")});
}

namespace {

space::Template node_heartbeat_template(std::uint32_t node_id) {
  return space::Template(
      std::string("fed-heartbeat"),
      {space::FieldPattern::exact(
           space::Value(static_cast<std::int64_t>(node_id))),
       space::FieldPattern::typed(space::ValueType::kString)});
}

}  // namespace

const char* StandbyGuard::to_string(State state) {
  switch (state) {
    case State::kIdle: return "idle";
    case State::kWatching: return "watching";
    case State::kPromoting: return "promoting";
    case State::kActive: return "active";
  }
  return "?";
}

StandbyGuard::StandbyGuard(SpaceApi& api, std::uint32_t watched_node,
                           FailoverConfig config,
                           std::function<void()> promote)
    : api_(&api),
      watched_node_(watched_node),
      config_(config),
      promote_(std::move(promote)) {
  TB_REQUIRE(config.tick > sim::Time::zero());
  TB_REQUIRE(config.grace >= config.tick);
}

void StandbyGuard::start() {
  TB_REQUIRE_MSG(state_ == State::kIdle, "guard already started");
  state_ = State::kWatching;
  sim::spawn(run());
}

sim::Task<void> StandbyGuard::run() {
  while (state_ == State::kWatching) {
    std::optional<space::Tuple> beat = co_await api_->take(
        node_heartbeat_template(watched_node_), config_.grace);
    if (beat.has_value()) {
      ++stats_.heartbeats_consumed;
      continue;
    }
    // Grace window dry: the primary is declared dead. Promote exactly once.
    state_ = State::kPromoting;
    ++stats_.promotions;
    stats_.promoted_at = api_->simulator().now();
    if (promote_) promote_();
    state_ = State::kActive;
  }
}

sim::Task<bool> ControlAgent::arm(sim::Time timeout) {
  // Step 1: put the start tuple into the space...
  const util::Status written =
      co_await api_->write_status(start_tuple(config_.role),
                                  space::kLeaseForever);
  if (!written.ok()) co_return false;
  // ...and wait until it has been removed.
  const sim::Time deadline = api_->simulator().now() + timeout;
  while (api_->simulator().now() < deadline) {
    std::optional<space::Tuple> still_there =
        co_await api_->read(start_template(config_.role), sim::Time::zero());
    if (!still_there.has_value()) co_return true;  // somebody took the role
    co_await sim::delay(api_->simulator(), config_.tick);
  }
  co_return false;
}

}  // namespace tb::svc
