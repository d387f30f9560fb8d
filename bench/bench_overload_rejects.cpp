// Overload reject-rate sweep (ISSUE 7): clients burst pipelined requests
// at a server whose admission control is progressively tightened
// (max_service_slots), and the shed fraction is measured per setting.
// Everything runs on the deterministic kernel, so the reject counts are
// bit-exact across runs and gate directly — no wall-clock noise.
//
// The shape to expect: with the queue seat count fixed, shrinking the
// service slots moves requests from "serviced this turn" through the
// admission FIFO into typed RESOURCE_EXHAUSTED sheds; clients here run
// without retries so every shed is visible as a miss.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/cosim/report.hpp"
#include "src/mw/client.hpp"
#include "src/mw/loopback.hpp"
#include "src/mw/node_core.hpp"
#include "src/obs/report.hpp"
#include "src/sim/process.hpp"

using namespace tb;
using namespace tb::sim::literals;

namespace {

struct SweepOutcome {
  std::uint64_t requests = 0;
  std::uint64_t rejects = 0;
  std::uint64_t queued = 0;
  double reject_rate = 0;
};

SweepOutcome run_overload(int service_slots, int queue_limit, int clients,
                          int depth, int rounds) {
  sim::Simulator sim;
  space::SpaceEngine space(sim);
  mw::XmlCodec codec;
  mw::LoopbackHub hub(sim, /*one_way_delay=*/5_ms);
  mw::ServerConfig server_config;
  server_config.max_service_slots = service_slots;
  server_config.admission_queue_limit = queue_limit;
  mw::NodeCore server(space, hub, codec, server_config);

  std::vector<std::unique_ptr<mw::SpaceClient>> fleet;
  for (int c = 0; c < clients; ++c) {
    fleet.push_back(std::make_unique<mw::SpaceClient>(
        sim, hub.create_client(), codec, mw::ClientConfig{}));
  }

  space::Template miss(std::string("absent"),
                       {space::FieldPattern::any()});
  for (int c = 0; c < clients; ++c) {
    sim::spawn([&, c]() -> sim::Task<void> {
      for (int round = 0; round < rounds; ++round) {
        std::vector<mw::RpcFuture<mw::SpaceClient::MatchResult>> burst;
        burst.reserve(static_cast<std::size_t>(depth));
        for (int d = 0; d < depth; ++d) {
          burst.push_back(fleet[static_cast<std::size_t>(c)]
                              ->read_match_async(miss, sim::Time::zero()));
        }
        for (auto& call : burst) (void)co_await call;
        co_await sim::delay(sim, 1_ms);
      }
    });
  }
  sim.run();

  SweepOutcome outcome;
  outcome.requests = server.stats().requests;
  outcome.rejects = server.stats().overload_rejects;
  outcome.queued = server.stats().admission_queued;
  outcome.reject_rate = outcome.requests == 0
                            ? 0
                            : static_cast<double>(outcome.rejects) /
                                  static_cast<double>(outcome.requests);
  return outcome;
}

}  // namespace

int main() {
  const bool short_mode = obs::bench_short_mode();
  obs::BenchReport bench("overload_rejects");
  std::printf("Admission-control sweep: reject rate vs service slots "
              "(typed RESOURCE_EXHAUSTED shed)\n\n");

  const int clients = 4;
  const int depth = 8;
  const int rounds = short_mode ? 20 : 100;
  const int queue_limit = 4;
  bench.add_param("clients", obs::JsonValue(static_cast<double>(clients)));
  bench.add_param("depth", obs::JsonValue(static_cast<double>(depth)));
  bench.add_param("rounds", obs::JsonValue(static_cast<double>(rounds)));

  cosim::TablePrinter table(
      {"slots", "requests", "queued", "rejects", "reject rate"});
  for (const int slots : {0, 16, 8, 4, 2}) {
    const SweepOutcome outcome =
        run_overload(slots, queue_limit, clients, depth, rounds);
    char rate[16];
    std::snprintf(rate, sizeof rate, "%.3f", outcome.reject_rate);
    table.add_row({slots == 0 ? "inf" : std::to_string(slots),
                   std::to_string(outcome.requests),
                   std::to_string(outcome.queued),
                   std::to_string(outcome.rejects), rate});
    // Deterministic kernel: counts are bit-exact, so the rates gate with
    // zero tolerance — any drift is a semantic change in admission.
    bench.add_key_metric(
        "reject_rate.slots" + std::string(slots == 0 ? "inf"
                                                     : std::to_string(slots)),
        outcome.reject_rate, obs::Better::kLower,
        {.unit = "fraction", .tolerance_pct = 0.0});
  }
  std::printf("%s\n", table.render().c_str());
  bench.add_table("reject_sweep", table.headers(), table.rows());
  std::printf("one service slot pool, %d clients x depth %d bursts, queue "
              "limit %d: tightening the pool moves bursts from service "
              "through the FIFO into typed sheds that a retrying client "
              "would resend after backoff.\n",
              clients, depth, queue_limit);
  std::printf("bench report: %s\n", bench.write().c_str());
  return 0;
}
