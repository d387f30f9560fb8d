// Uniform space access for services.
//
// Factory-automation agents (§2.1) should not care whether the tuplespace is
// in-process (Java-prototype stage of the methodology) or behind the
// middleware on a TpWIRE board (deployment stage) — that location
// transparency is the tuplespace model's selling point. SpaceApi is the
// seam: LocalSpaceApi binds directly to a SpaceEngine, RemoteSpaceApi to a
// SpaceClient, and every service runs unchanged on either.
#pragma once

#include <optional>

#include "src/mw/client.hpp"
#include "src/sim/process.hpp"
#include "src/space/engine.hpp"
#include "src/space/ops.hpp"
#include "src/util/status.hpp"

namespace tb::svc {

class SpaceApi {
 public:
  virtual ~SpaceApi() = default;

  virtual sim::Task<bool> write(space::Tuple tuple, sim::Time lease) = 0;
  virtual sim::Task<std::optional<space::Tuple>> take(space::Template tmpl,
                                                      sim::Time timeout) = 0;
  virtual sim::Task<std::optional<space::Tuple>> read(space::Template tmpl,
                                                      sim::Time timeout) = 0;
  virtual sim::Simulator& simulator() = 0;

  /// Typed write (DESIGN.md §12): canonical Status instead of bool, so
  /// callers can tell retryable overload (RESOURCE_EXHAUSTED, UNAVAILABLE)
  /// from hard failure. The default bridges through write().
  virtual sim::Task<util::Status> write_status(space::Tuple tuple,
                                               sim::Time lease) {
    const bool ok = co_await write(std::move(tuple), lease);
    co_return ok ? util::OkStatus() : util::Unavailable("write failed");
  }
};

/// Direct binding to an in-process SpaceEngine.
class LocalSpaceApi final : public SpaceApi {
 public:
  explicit LocalSpaceApi(space::SpaceEngine& space) : space_(&space) {}

  sim::Task<bool> write(space::Tuple tuple, sim::Time lease) override {
    space_->write(std::move(tuple), lease);
    co_return true;
  }
  sim::Task<std::optional<space::Tuple>> take(space::Template tmpl,
                                              sim::Time timeout) override {
    co_return co_await space::take(*space_, std::move(tmpl), timeout);
  }
  sim::Task<std::optional<space::Tuple>> read(space::Template tmpl,
                                              sim::Time timeout) override {
    co_return co_await space::read(*space_, std::move(tmpl), timeout);
  }
  sim::Simulator& simulator() override { return space_->simulator(); }

 private:
  space::SpaceEngine* space_;
};

/// Binding through the middleware client (any transport).
class RemoteSpaceApi final : public SpaceApi {
 public:
  RemoteSpaceApi(sim::Simulator& sim, mw::SpaceClient& client)
      : sim_(&sim), client_(&client) {}

  sim::Task<bool> write(space::Tuple tuple, sim::Time lease) override {
    mw::SpaceClient::WriteResult r =
        co_await client_->write(std::move(tuple), lease);
    co_return r.ok;
  }
  sim::Task<util::Status> write_status(space::Tuple tuple,
                                       sim::Time lease) override {
    mw::SpaceClient::WriteResult r =
        co_await client_->write(std::move(tuple), lease);
    co_return r.status;
  }
  sim::Task<std::optional<space::Tuple>> take(space::Template tmpl,
                                              sim::Time timeout) override {
    co_return co_await client_->take(std::move(tmpl), timeout);
  }
  sim::Task<std::optional<space::Tuple>> read(space::Template tmpl,
                                              sim::Time timeout) override {
    co_return co_await client_->read(std::move(tmpl), timeout);
  }
  sim::Simulator& simulator() override { return *sim_; }

 private:
  sim::Simulator* sim_;
  mw::SpaceClient* client_;
};

}  // namespace tb::svc
