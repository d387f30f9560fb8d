#include "src/fed/client.hpp"

#include <climits>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/space/tuple.hpp"

namespace tb::fed {
namespace {

/// Mis-route refresh+re-route attempts per named op before giving up.
constexpr int kMaxRouteRetries = 3;

/// Same-node retries of a canonically retryable reject per named write.
constexpr int kMaxRetryableRetries = 2;

/// Directed-take re-scatter rounds per wildcard take (each round is one full
/// peek fan-out; a round is lost only when another taker wins the directed
/// take race).
constexpr int kMaxScatterRounds = 16;

/// Blocking-wildcard poll cadence. Named blocking ops park server-side as
/// always; only wildcards pay this.
constexpr sim::Time kPollInterval = sim::Time::ms(5);

}  // namespace

FederatedClient::FederatedClient(sim::Simulator& sim,
                                 const SharedRoutingSource& source,
                                 Resolver resolver)
    : sim_(&sim), source_(&source), resolver_(std::move(resolver)) {}

void FederatedClient::bind_metrics(obs::Registry& registry,
                                   const std::string& prefix) {
  registry.mirror(prefix, stats_,
                  {{".routed_writes", &Stats::routed_writes},
                   {".routed_matches", &Stats::routed_matches},
                   {".wildcard_matches", &Stats::wildcard_matches},
                   {".peeks_sent", &Stats::peeks_sent},
                   {".directed_takes", &Stats::directed_takes},
                   {".directed_take_misses", &Stats::directed_take_misses},
                   {".misroute_refreshes", &Stats::misroute_refreshes},
                   {".table_fetches", &Stats::table_fetches},
                   {".polls", &Stats::polls}});
}

bool FederatedClient::ensure_table() {
  if (!table_.empty()) return true;
  ++stats_.table_fetches;
  if (source_->current().empty()) return false;
  table_ = source_->current();
  return true;
}

void FederatedClient::refresh_table() {
  ++stats_.misroute_refreshes;
  ++stats_.table_fetches;
  if (!source_->current().empty()) table_ = source_->current();
}

sim::Task<bool> FederatedClient::write(space::Tuple tuple, sim::Time lease) {
  const util::Status status =
      co_await write_status(std::move(tuple), lease);
  co_return status.ok();
}

sim::Task<util::Status> FederatedClient::write_status(space::Tuple tuple,
                                                      sim::Time lease) {
  if (!ensure_table()) {
    co_return util::Unavailable("no routing table");
  }
  const std::uint64_t key =
      space::type_key(tuple.name, tuple.fields.size());
  int route_retries = kMaxRouteRetries;
  int same_node_retries = kMaxRetryableRetries;
  while (true) {
    const std::uint32_t owner = table_.owner_of(key);
    mw::SpaceClient* client = client_for(owner);
    if (client == nullptr) {
      // No channel: the table outran the fabric (node died, promotion in
      // flight). Treat like a mis-route — refresh and re-route.
      if (route_retries-- <= 0) {
        co_return util::Unavailable("no channel to owner node");
      }
      refresh_table();
      continue;
    }
    ++stats_.routed_writes;
    const mw::SpaceClient::WriteResult result =
        co_await client->write_async(tuple, lease);  // copy: may re-route
    if (result.status.code() == util::StatusCode::kFailedPrecondition) {
      if (route_retries-- <= 0) co_return result.status;
      refresh_table();
      continue;
    }
    if (!result.status.ok() && result.status.retryable() &&
        same_node_retries-- > 0) {
      continue;  // overload/unavailable: same owner, ownership holds
    }
    co_return result.status;
  }
}

sim::Task<std::optional<space::Tuple>> FederatedClient::take(
    space::Template tmpl, sim::Time timeout) {
  if (tmpl.name) co_return co_await named_match(std::move(tmpl), timeout, true);
  co_return co_await wildcard_match(std::move(tmpl), timeout, true);
}

sim::Task<std::optional<space::Tuple>> FederatedClient::read(
    space::Template tmpl, sim::Time timeout) {
  if (tmpl.name) {
    co_return co_await named_match(std::move(tmpl), timeout, false);
  }
  co_return co_await wildcard_match(std::move(tmpl), timeout, false);
}

sim::Task<std::optional<space::Tuple>> FederatedClient::named_match(
    space::Template tmpl, sim::Time timeout, bool take) {
  if (!ensure_table()) co_return std::nullopt;
  const std::uint64_t key = space::type_key(*tmpl.name, tmpl.fields.size());
  int route_retries = kMaxRouteRetries;
  while (true) {
    const std::uint32_t owner = table_.owner_of(key);
    mw::SpaceClient* client = client_for(owner);
    if (client == nullptr) {
      if (route_retries-- <= 0) co_return std::nullopt;
      refresh_table();
      continue;
    }
    ++stats_.routed_matches;
    // Two separate awaits, not one ternary: GCC 12 miscompiles co_await
    // operands of a conditional expression (frame placement of the
    // branch-dependent temporary). The template is copied — we may re-route.
    mw::SpaceClient::MatchResult result;
    if (take) {
      result = co_await client->take_match_async(tmpl, timeout);
    } else {
      result = co_await client->read_match_async(tmpl, timeout);
    }
    if (result.status.code() == util::StatusCode::kFailedPrecondition) {
      if (route_retries-- <= 0) co_return std::nullopt;
      refresh_table();
      continue;
    }
    // OK with a tuple = match; OK without = clean miss; DEADLINE_EXCEEDED
    // = the blocking deadline passed while parked. All final.
    co_return std::move(result.tuple);
  }
}

sim::Task<std::optional<space::Tuple>> FederatedClient::wildcard_match(
    space::Template tmpl, sim::Time timeout, bool take) {
  if (!ensure_table()) co_return std::nullopt;
  ++stats_.wildcard_matches;
  const bool blocking =
      timeout > sim::Time::zero() || timeout == space::kLeaseForever;
  const sim::Time deadline = timeout == space::kLeaseForever
                                 ? sim::Time::max()
                                 : sim_->now() + timeout;
  while (true) {
    // Wildcards never draw mis-route rejects (no single owner to reject
    // them), so a stale table surfaces differently: a member with no
    // channel. Refresh before scattering or a post-failover table — the
    // promoted standby holding the dead node's entries — would never be
    // probed and its tuples would stay invisible to this router.
    for (const std::uint32_t node : table_.nodes()) {
      if (client_for(node) == nullptr) {
        refresh_table();
        break;
      }
    }
    std::optional<space::Tuple> result = co_await scatter_once(tmpl, take);
    if (result) co_return result;
    if (!blocking) co_return std::nullopt;
    if (sim_->now() + kPollInterval > deadline) co_return std::nullopt;
    // No waiter parks on any node for a wildcard: the merge point is here,
    // so blocking degrades to polling (documented, DESIGN.md §16).
    ++stats_.polls;
    co_await sim::delay(*sim_, kPollInterval);
  }
}

sim::Task<std::optional<space::Tuple>> FederatedClient::scatter_once(
    const space::Template& tmpl, bool take) {
  for (int round = 0; round < kMaxScatterRounds; ++round) {
    // Fan the peeks out first, then await: every node serves its probe
    // concurrently, so the round costs one RTT, not one per node.
    std::vector<std::pair<std::uint32_t,
                          mw::RpcFuture<std::optional<mw::Message>>>>
        peeks;
    for (const std::uint32_t node : table_.nodes()) {
      mw::SpaceClient* client = client_for(node);
      if (client == nullptr) continue;
      mw::Message request;
      request.type = mw::MsgType::kPeekRequest;
      request.tmpl = tmpl;
      ++stats_.peeks_sent;
      peeks.emplace_back(node, client->rpc_async(std::move(request)));
    }
    std::uint64_t best_ticket = UINT64_MAX;
    std::uint32_t best_node = 0;
    std::optional<space::Tuple> best_tuple;
    for (auto& [node, future] : peeks) {
      std::optional<mw::Message> response = co_await future;
      if (!response || response->type != mw::MsgType::kPeekResponse ||
          !response->ok || !response->tuple) {
        continue;
      }
      // handle 0 = the entry predates ticketing; unorderable, skip.
      if (response->handle == 0 || response->handle >= best_ticket) continue;
      best_ticket = response->handle;
      best_node = node;
      best_tuple = std::move(response->tuple);
    }
    if (!best_tuple) co_return std::nullopt;  // empty everywhere
    if (!take) co_return best_tuple;  // the winning peek IS the read result
    ++stats_.directed_takes;
    mw::SpaceClient* winner = client_for(best_node);
    if (winner != nullptr) {
      mw::Message request;
      request.type = mw::MsgType::kTakeByIdRequest;
      request.handle = best_ticket;
      std::optional<mw::Message> response =
          co_await winner->rpc_async(std::move(request));
      if (response && response->type == mw::MsgType::kMatchResponse &&
          response->ok && response->tuple) {
        co_return std::move(response->tuple);
      }
    }
    // Lost the race (another taker removed the winner between peek and
    // directed take) or the channel vanished: re-scatter.
    ++stats_.directed_take_misses;
  }
  co_return std::nullopt;
}

}  // namespace tb::fed
