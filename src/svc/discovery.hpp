// Service discovery over the tuplespace (paper §2.1, "Support to system
// extensions"): providers register service tuples; joiners query the space
// to locate a provider — no central configuration, so devices can be added
// or removed without reprogramming the controller.
//
// Registry tuple shape: ("svc-registry", service_name, provider_id,
//                        endpoint_node, version)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/svc/space_api.hpp"

namespace tb::svc {

struct ServiceRecord {
  std::string service;      ///< e.g. "fft"
  std::string provider;     ///< unique provider id
  std::int64_t endpoint;    ///< provider's node id / address
  std::int64_t version = 1;

  bool operator==(const ServiceRecord&) const = default;
};

class Discovery {
 public:
  explicit Discovery(SpaceApi& api) : api_(&api) {}

  /// Registers a provider. `lease` bounds staleness: a crashed provider's
  /// record evaporates when its lease runs out (re-register to renew).
  sim::Task<bool> announce(ServiceRecord record,
                           sim::Time lease = space::kLeaseForever);

  /// First provider of the service, or nullopt after `timeout`.
  sim::Task<std::optional<ServiceRecord>> locate(std::string service,
                                                 sim::Time timeout);

  /// All currently registered providers of a service (Linda scan: take
  /// every record, then write each back).
  sim::Task<std::vector<ServiceRecord>> locate_all(std::string service);

  /// Removes a provider's record. False when not registered.
  sim::Task<bool> withdraw(std::string service, std::string provider);

  static space::Tuple to_tuple(const ServiceRecord& record);
  static std::optional<ServiceRecord> from_tuple(const space::Tuple& tuple);

 private:
  static space::Template service_template(const std::string& service);

  SpaceApi* api_;
};

}  // namespace tb::svc
