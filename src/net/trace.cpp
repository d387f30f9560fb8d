#include "src/net/trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/net/node.hpp"

namespace tb::net {

std::string TraceRecord::format() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%c %.9f %u %u data %zu --- %u %llu %llu",
                static_cast<char>(op), at.seconds(), from_node, to_node,
                size_bytes, flow_id,
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(uid));
  return buf;
}

void Tracer::attach(SimplexLink& link) {
  link.on_enqueue().connect(
      [this, &link](const Packet& p) { record(TraceOp::kEnqueue, link, p); });
  link.on_dequeue().connect(
      [this, &link](const Packet& p) { record(TraceOp::kDequeue, link, p); });
  link.on_receive().connect(
      [this, &link](const Packet& p) { record(TraceOp::kReceive, link, p); });
  link.on_drop().connect(
      [this, &link](const Packet& p) { record(TraceOp::kDrop, link, p); });
}

void Tracer::record(TraceOp op, const SimplexLink& link, const Packet& packet) {
  TraceRecord rec;
  rec.op = op;
  rec.at = sim_->now();
  rec.from_node = const_cast<SimplexLink&>(link).from().id();
  rec.to_node = const_cast<SimplexLink&>(link).to().id();
  rec.flow_id = packet.flow_id;
  rec.size_bytes = packet.size_bytes;
  rec.seq = packet.seq;
  rec.uid = packet.uid;
  lines_.push_back(rec.format());
  records_.push_back(rec);
}

void Tracer::attach(wire::BusModel& bus) {
  bus.on_cycle().connect([this](const wire::CycleTrace& cycle) {
    char buf[128];
    char rx[8] = "-";
    if (cycle.rx_seen) std::snprintf(rx, sizeof rx, "%04x", cycle.rx_word);
    std::snprintf(buf, sizeof buf, "w %.9f cyc %04x %s %s %d",
                  cycle.end.seconds(), cycle.tx_word,
                  wire::to_string(cycle.status), rx, cycle.responder);
    lines_.push_back(buf);
  });
}

std::size_t Tracer::count(TraceOp op) const {
  std::size_t n = 0;
  for (const TraceRecord& rec : records_) {
    if (rec.op == op) ++n;
  }
  return n;
}

std::string Tracer::dump() const {
  std::ostringstream os;
  for (const std::string& line : lines_) os << line << '\n';
  return os.str();
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << dump();
  return static_cast<bool>(out);
}

}  // namespace tb::net
