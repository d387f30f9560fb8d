#include "src/svc/discovery.hpp"

namespace tb::svc {

namespace {
constexpr const char* kRegistryName = "svc-registry";
}

space::Tuple Discovery::to_tuple(const ServiceRecord& record) {
  return space::Tuple(kRegistryName,
                      {record.service, record.provider, record.endpoint,
                       record.version});
}

std::optional<ServiceRecord> Discovery::from_tuple(const space::Tuple& tuple) {
  if (tuple.name != kRegistryName || tuple.arity() != 4) return std::nullopt;
  if (!tuple.fields[0].is(space::ValueType::kString) ||
      !tuple.fields[1].is(space::ValueType::kString) ||
      !tuple.fields[2].is(space::ValueType::kInt) ||
      !tuple.fields[3].is(space::ValueType::kInt)) {
    return std::nullopt;
  }
  ServiceRecord record;
  record.service = tuple.fields[0].as_string();
  record.provider = tuple.fields[1].as_string();
  record.endpoint = tuple.fields[2].as_int();
  record.version = tuple.fields[3].as_int();
  return record;
}

space::Template Discovery::service_template(const std::string& service) {
  return space::Template(
      std::string(kRegistryName),
      {space::FieldPattern::exact(space::Value(service)),
       space::FieldPattern::typed(space::ValueType::kString),
       space::FieldPattern::typed(space::ValueType::kInt),
       space::FieldPattern::typed(space::ValueType::kInt)});
}

sim::Task<bool> Discovery::announce(ServiceRecord record, sim::Time lease) {
  // Replace any stale record from the same provider first.
  co_await withdraw(record.service, record.provider);
  co_return co_await api_->write(to_tuple(record), lease);
}

sim::Task<std::optional<ServiceRecord>> Discovery::locate(std::string service,
                                                          sim::Time timeout) {
  std::optional<space::Tuple> tuple =
      co_await api_->read(service_template(service), timeout);
  if (!tuple) co_return std::nullopt;
  co_return from_tuple(*tuple);
}

sim::Task<std::vector<ServiceRecord>> Discovery::locate_all(
    std::string service) {
  // Linda scan: drain matching records, then restore them. Atomic enough in
  // a single-threaded simulation; a distributed deployment would shadow the
  // registry with a transaction tuple.
  std::vector<ServiceRecord> records;
  std::vector<space::Tuple> drained;
  while (true) {
    std::optional<space::Tuple> tuple =
        co_await api_->take(service_template(service), sim::Time::zero());
    if (!tuple) break;
    if (auto record = from_tuple(*tuple)) records.push_back(std::move(*record));
    drained.push_back(std::move(*tuple));
  }
  for (space::Tuple& tuple : drained) {
    co_await api_->write(std::move(tuple), space::kLeaseForever);
  }
  co_return records;
}

sim::Task<bool> Discovery::withdraw(std::string service,
                                    std::string provider) {
  space::Template tmpl(
      std::string(kRegistryName),
      {space::FieldPattern::exact(space::Value(service)),
       space::FieldPattern::exact(space::Value(provider)),
       space::FieldPattern::typed(space::ValueType::kInt),
       space::FieldPattern::typed(space::ValueType::kInt)});
  std::optional<space::Tuple> taken =
      co_await api_->take(std::move(tmpl), sim::Time::zero());
  co_return taken.has_value();
}

}  // namespace tb::svc
