// Figures 3-5 ablation: what each layer of the paper's software stack costs.
//
//  * transport: in-process RMI (Fig. 3) vs Ethernet/TCP socket (Fig. 4) vs
//    TpWIRE mailboxes through the master relay (Fig. 5/7);
//  * representation: XML entries (the paper's choice) vs a binary codec —
//    including raw encode/decode throughput of the buffer-reuse hot path;
//  * co-simulation plumbing: GDB remote-serial-protocol framing overhead.
#include <chrono>
#include <cstdio>

#include "src/cosim/report.hpp"
#include "src/cosim/rsp.hpp"
#include "src/cosim/rsp_pipe.hpp"
#include "src/cosim/scenario.hpp"
#include "src/mw/loopback.hpp"
#include "src/mw/net_transport.hpp"
#include "src/net/network.hpp"
#include "src/obs/report.hpp"
#include "src/sim/process.hpp"
#include "src/util/strings.hpp"

using namespace tb;
using namespace tb::sim::literals;

namespace {

space::Template entry_template() {
  return space::Template(
      std::string("entry"),
      {space::FieldPattern::typed(space::ValueType::kInt),
       space::FieldPattern::typed(space::ValueType::kBytes)});
}

space::Tuple sample_entry() {
  std::vector<std::uint8_t> blob(64);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i);
  }
  return space::make_tuple("entry", std::int64_t{1}, std::move(blob));
}

/// Round-trip (write + take) time through a client bound to `transport`.
double measure(sim::Simulator& sim, mw::SpaceClient& client) {
  double seconds = -1.0;
  sim::spawn([&]() -> sim::Task<void> {
    const sim::Time start = sim.now();
    (void)co_await client.write(sample_entry(), space::kLeaseForever);
    (void)co_await client.take(entry_template(), 3600_s);
    seconds = (sim.now() - start).seconds();
    sim.stop();
  });
  sim.run_until(sim::Time::sec(7'200));
  return seconds;
}

double loopback_case(bool xml, obs::Snapshot* snapshot_out = nullptr) {
  sim::Simulator sim(1);
  space::SpaceEngine space(sim);
  std::unique_ptr<mw::Codec> codec;
  if (xml) codec = std::make_unique<mw::XmlCodec>();
  else codec = std::make_unique<mw::BinaryCodec>();
  mw::LoopbackHub hub(sim, 5_ms);
  mw::NodeCore server(space, hub, *codec);
  mw::LoopbackClient& transport = hub.create_client();
  mw::SpaceClient client(sim, transport, *codec);
  obs::Registry registry;
  if (snapshot_out != nullptr) {
    sim.bind_metrics(registry);
    space.bind_metrics(registry);
    client.bind_metrics(registry);
  }
  const double seconds = measure(sim, client);
  // Snapshot before the sim (whose clock the registry borrows) goes away.
  if (snapshot_out != nullptr) *snapshot_out = registry.snapshot();
  return seconds;
}

double net_case(bool xml, double bandwidth_bps) {
  sim::Simulator sim(1);
  space::SpaceEngine space(sim);
  std::unique_ptr<mw::Codec> codec;
  if (xml) codec = std::make_unique<mw::XmlCodec>();
  else codec = std::make_unique<mw::BinaryCodec>();
  net::Network network(sim);
  net::Node& board = network.add_node("board");
  net::Node& host = network.add_node("host");
  net::LinkParams link;
  link.bandwidth_bps = bandwidth_bps;
  link.prop_delay = 1_ms;
  network.connect(board, host, link);
  mw::NetServerTransport server_transport(sim, host, 1);
  mw::NodeCore server(space, server_transport, *codec);
  mw::NetClientTransport client_transport(sim, board, 1,
                                          server_transport.listen_address());
  mw::SpaceClient client(sim, client_transport, *codec);
  return measure(sim, client);
}

double rsp_pipe_case(bool xml) {
  sim::Simulator sim(1);
  space::SpaceEngine space(sim);
  std::unique_ptr<mw::Codec> codec;
  if (xml) codec = std::make_unique<mw::XmlCodec>();
  else codec = std::make_unique<mw::BinaryCodec>();
  cosim::RspPipe pipe(sim);  // 115200-baud serial, the gdb stub's tty
  mw::NodeCore server(space, pipe.server_end(), *codec);
  mw::SpaceClient client(sim, pipe.client_end(), *codec);
  return measure(sim, client);
}

/// A representative write-request (the steady-state producer message).
mw::Message sample_request() {
  mw::Message m;
  m.type = mw::MsgType::kWriteRequest;
  m.request_id = 42;
  m.created_at_ns = 1'000'000;
  m.duration_ns = 160'000'000'000;
  m.tuple = sample_entry();
  return m;
}

struct CodecThroughput {
  double encode_items_per_s = 0;
  double decode_items_per_s = 0;
  double bytes_per_op = 0;  ///< encoded size — deterministic, gates
};

/// Wall-clock throughput of the buffer-reuse encode path and the decode
/// path.
CodecThroughput codec_throughput(const mw::Codec& codec) {
  using Clock = std::chrono::steady_clock;
  const mw::Message request = sample_request();
  const int iters = obs::bench_short_mode() ? 2'000 : 20'000;

  CodecThroughput result;
  std::vector<std::uint8_t> buf;
  const auto encode_start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    buf.clear();
    codec.encode_into(request, buf);
  }
  const double encode_s =
      std::chrono::duration<double>(Clock::now() - encode_start).count();
  result.encode_items_per_s = iters / encode_s;
  result.bytes_per_op = static_cast<double>(buf.size());

  const auto decode_start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    auto decoded = codec.decode(buf);
    if (!decoded) std::abort();  // representative input must decode
  }
  const double decode_s =
      std::chrono::duration<double>(Clock::now() - decode_start).count();
  result.decode_items_per_s = iters / decode_s;
  return result;
}

double wire_case(bool xml) {
  cosim::ScenarioConfig config;
  config.use_xml_codec = xml;
  cosim::WireScenario scenario(config);
  mw::SpaceClient& client = scenario.add_client(0);
  scenario.start();
  return measure(scenario.sim(), client);
}

}  // namespace

int main() {
  obs::BenchReport bench("transport_stack");
  std::printf("Transport-stack ablation: write+take of a 64-byte entry\n");
  std::printf("(TpWIRE at the Table-4 calibration: 6 kbit/s, firmware "
              "turnaround)\n\n");

  // Every cell is simulated time — deterministic, so all gate.
  auto keyed = [&bench](const char* name, double seconds) {
    bench.add_key_metric(name, seconds, obs::Better::kLower, {.unit = "s"});
    return seconds;
  };
  obs::Snapshot loopback_snapshot;
  cosim::TablePrinter table({"transport", "codec", "round trip"});
  table.add_row(
      {"loopback (RMI, Fig.3)", "xml",
       util::format_seconds(
           keyed("loopback.xml_s", loopback_case(true, &loopback_snapshot)))});
  table.add_row({"loopback (RMI, Fig.3)", "binary",
                 util::format_seconds(
                     keyed("loopback.binary_s", loopback_case(false)))});
  table.add_row({"10 Mb/s ethernet (Fig.4)", "xml",
                 util::format_seconds(
                     keyed("ethernet.xml_s", net_case(true, 10e6)))});
  table.add_row({"10 Mb/s ethernet (Fig.4)", "binary",
                 util::format_seconds(
                     keyed("ethernet.binary_s", net_case(false, 10e6)))});
  table.add_row({"gdb-RSP serial pipe (Fig.5 glue)", "xml",
                 util::format_seconds(
                     keyed("rsp_pipe.xml_s", rsp_pipe_case(true)))});
  table.add_row({"gdb-RSP serial pipe (Fig.5 glue)", "binary",
                 util::format_seconds(
                     keyed("rsp_pipe.binary_s", rsp_pipe_case(false)))});
  table.add_row({"TpWIRE 1-wire (Fig.5/7)", "xml",
                 util::format_seconds(keyed("tpwire.xml_s", wire_case(true)))});
  table.add_row({"TpWIRE 1-wire (Fig.5/7)", "binary",
                 util::format_seconds(
                     keyed("tpwire.binary_s", wire_case(false)))});
  std::printf("%s\n", table.render().c_str());
  bench.add_table("round_trips", table.headers(), table.rows());
  bench.add_registry(loopback_snapshot, "loopback_xml");

  // Raw codec throughput of the buffer-reuse hot path. Items/s is
  // wall-clock (report-only); bytes/op is deterministic and gates.
  std::printf("Codec throughput (write-request with a 64-byte entry):\n");
  mw::XmlCodec xml_codec;
  mw::BinaryCodec binary_codec;
  struct Row {
    const char* label;
    const char* key;
    CodecThroughput t;
  };
  const Row rows[] = {
      {"xml (writer)", "codec.xml", codec_throughput(xml_codec)},
      {"binary", "codec.binary", codec_throughput(binary_codec)},
  };
  cosim::TablePrinter codec_table(
      {"codec", "encode items/s", "decode items/s", "bytes/op"});
  for (const Row& row : rows) {
    codec_table.add_row({row.label,
                         util::format_double(row.t.encode_items_per_s, 0),
                         util::format_double(row.t.decode_items_per_s, 0),
                         util::format_double(row.t.bytes_per_op, 0)});
    bench.add_key_metric(std::string(row.key) + ".encode_items_per_s",
                         row.t.encode_items_per_s, obs::Better::kHigher,
                         {.unit = "items/s", .gate = false});
    bench.add_key_metric(std::string(row.key) + ".decode_items_per_s",
                         row.t.decode_items_per_s, obs::Better::kHigher,
                         {.unit = "items/s", .gate = false});
    // Encoded size must not creep: it feeds straight into the paper's
    // bus-load estimates.
    bench.add_key_metric(std::string(row.key) + ".bytes_per_op",
                         row.t.bytes_per_op, obs::Better::kLower,
                         {.unit = "B"});
  }
  std::printf("%s\n", codec_table.render().c_str());
  bench.add_table("codec_throughput", codec_table.headers(),
                  codec_table.rows());

  // GDB RSP framing overhead (the Fig. 5 board bridge).
  std::printf("GDB remote-serial-protocol framing overhead (board bridge, "
              "Fig. 5):\n");
  cosim::TablePrinter rsp({"payload (B)", "wire bytes", "overhead"});
  for (std::size_t size : {8u, 64u, 512u, 4096u}) {
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 13);
    }
    const std::size_t wire = cosim::rsp_wire_size(payload);
    rsp.add_row({std::to_string(size), std::to_string(wire),
                 util::format_double(
                     100.0 * (static_cast<double>(wire) - size) / size, 1) +
                     "%"});
  }
  std::printf("%s", rsp.render().c_str());
  bench.add_table("rsp_overhead", rsp.headers(), rsp.rows());
  std::printf("bench report: %s\n", bench.write().c_str());
  return 0;
}
