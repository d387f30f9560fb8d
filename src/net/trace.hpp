// NS-2-format event tracing.
//
// NS-2's defining workflow is the trace file: one line per packet event,
//   <op> <time> <from> <to> <type> <size> --- <flow> <src> <dst> <seq> <uid>
// with op '+' enqueue, '-' dequeue (transmission start), 'r' receive,
// 'd' drop. The paper leans on NS-2 precisely for this kind of
// observability ("the possibility of generating various traffic workloads
// that can be used to separately validate the model"); this recorder
// restores it for our link layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/link.hpp"
#include "src/net/packet.hpp"
#include "src/sim/simulator.hpp"
#include "src/wire/bus_model.hpp"

namespace tb::net {

enum class TraceOp : char {
  kEnqueue = '+',
  kDequeue = '-',
  kReceive = 'r',
  kDrop = 'd',
};

struct TraceRecord {
  TraceOp op;
  sim::Time at;
  std::uint32_t from_node = 0;
  std::uint32_t to_node = 0;
  std::uint32_t flow_id = 0;
  std::size_t size_bytes = 0;
  std::uint64_t seq = 0;
  std::uint64_t uid = 0;

  /// One NS-2-style trace line.
  std::string format() const;
};

/// Records every event on the links and buses it is attached to. Attach
/// before traffic starts; records accumulate for the tracer's lifetime.
///
/// Attached TpWIRE buses contribute one line per communication cycle:
///   w <time> cyc <tx_word> <status> <rx_word|-> <responder>
/// with the words as physically transmitted (fault injection included), so
/// the dump is a byte-exact fingerprint of everything the medium carried —
/// the replay artifact the fault subsystem's one-line seed reports point at.
class Tracer {
 public:
  explicit Tracer(sim::Simulator& sim) : sim_(&sim) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Hooks all four event signals of the link.
  void attach(SimplexLink& link);

  /// Hooks the bus's per-cycle trace signal.
  void attach(wire::BusModel& bus);

  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Count of records with the given op.
  std::size_t count(TraceOp op) const;

  /// The whole trace as text: NS-2-style link lines and TpWIRE cycle lines
  /// interleaved in event order.
  std::string dump() const;

  /// Writes dump() to a file; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  void record(TraceOp op, const SimplexLink& link, const Packet& packet);

  sim::Simulator* sim_;
  std::vector<TraceRecord> records_;
  std::vector<std::string> lines_;  ///< all events, formatted, in order
};

}  // namespace tb::net
