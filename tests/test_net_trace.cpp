// NS-2-format tracing + the tuple-XML module (both observability surfaces).
#include <gtest/gtest.h>

#include "src/mw/tuple_xml.hpp"
#include "src/net/network.hpp"
#include "src/net/sink.hpp"
#include "src/net/trace.hpp"
#include "src/net/traffic.hpp"

namespace tb {
namespace {

using namespace tb::sim::literals;

TEST(Trace, RecordsLifecycleOfAPacket) {
  sim::Simulator sim(1);
  net::Network network(sim);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::DuplexLink link = network.connect(a, b, {});
  net::SinkAgent sink(sim, b, 1);
  net::Tracer tracer(sim);
  tracer.attach(*link.forward);

  net::Packet packet;
  packet.dst = {b.id(), 1};
  packet.flow_id = 3;
  packet.seq = 7;
  packet.size_bytes = 100;
  a.send(packet);
  sim.run();

  ASSERT_EQ(tracer.size(), 3u);  // + then - then r
  EXPECT_EQ(tracer.records()[0].op, net::TraceOp::kEnqueue);
  EXPECT_EQ(tracer.records()[1].op, net::TraceOp::kDequeue);
  EXPECT_EQ(tracer.records()[2].op, net::TraceOp::kReceive);
  EXPECT_EQ(tracer.records()[2].flow_id, 3u);
  EXPECT_EQ(tracer.records()[2].seq, 7u);
  EXPECT_GT(tracer.records()[2].at, tracer.records()[0].at);
}

TEST(Trace, RecordsDrops) {
  sim::Simulator sim(1);
  net::Network network(sim);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::LinkParams params;
  params.bandwidth_bps = 8'000;
  params.queue_limit_packets = 1;
  net::DuplexLink link = network.connect(a, b, params);
  net::SinkAgent sink(sim, b, 1);
  net::Tracer tracer(sim);
  tracer.attach(*link.forward);

  for (int i = 0; i < 5; ++i) {
    net::Packet packet;
    packet.dst = {b.id(), 1};
    packet.size_bytes = 500;
    a.send(packet);
  }
  sim.run();
  EXPECT_EQ(tracer.count(net::TraceOp::kDrop), 3u);
  EXPECT_EQ(tracer.count(net::TraceOp::kReceive), 2u);
}

TEST(Trace, FormatLooksLikeNs2) {
  net::TraceRecord rec;
  rec.op = net::TraceOp::kEnqueue;
  rec.at = 100_ms;
  rec.from_node = 1;
  rec.to_node = 2;
  rec.flow_id = 5;
  rec.size_bytes = 210;
  rec.seq = 4;
  rec.uid = 99;
  EXPECT_EQ(rec.format(), "+ 0.100000000 1 2 data 210 --- 5 4 99");
}

TEST(Trace, DumpOneLinePerEvent) {
  sim::Simulator sim(1);
  net::Network network(sim);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::DuplexLink link = network.connect(a, b, {});
  net::SinkAgent sink(sim, b, 1);
  net::Tracer tracer(sim);
  tracer.attach(*link.forward);
  net::CbrGenerator cbr(sim, a, 2, {b.id(), 1}, {100.0, 10, 1});
  cbr.start();
  sim.run_until(1_s);
  const std::string dump = tracer.dump();
  const auto lines = static_cast<std::size_t>(
      std::count(dump.begin(), dump.end(), '\n'));
  EXPECT_EQ(lines, tracer.size());
  EXPECT_NE(dump.find("data 10"), std::string::npos);
}

// ---------------------------------------------------------------------------

/// Encodes through the writer and parses the bytes back into a tree.
template <typename T>
mw::XmlNode write_and_parse(const T& item,
                            void (*encode)(const T&, mw::XmlWriter&),
                            std::string* text = nullptr) {
  std::vector<std::uint8_t> out;
  mw::XmlWriter w(out);
  encode(item, w);
  const std::string doc(out.begin(), out.end());
  if (text != nullptr) *text = doc;
  auto node = mw::xml_parse(doc);
  EXPECT_TRUE(node.has_value()) << doc;
  return node.value_or(mw::XmlNode{});
}

TEST(TupleXml, TupleDocumentRoundTrip) {
  const space::Tuple tuple = space::make_tuple(
      "sensor", std::int64_t{7}, 21.5, true, "on",
      std::vector<std::uint8_t>{0xDE, 0xAD});
  std::string text;
  const mw::XmlNode node =
      write_and_parse(tuple, &mw::tuple_to_xml_into, &text);
  EXPECT_EQ(text,
            "<tuple name=\"sensor\"><int>7</int><float>21.5</float>"
            "<bool>true</bool><string>on</string><bytes>dead</bytes></tuple>");
  auto back = mw::tuple_from_xml(node);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tuple);
}

TEST(TupleXml, TemplateRoundTrip) {
  space::Template tmpl(std::string("job"),
                       {space::FieldPattern::exact(space::Value(5)),
                        space::FieldPattern::typed(space::ValueType::kBytes),
                        space::FieldPattern::any()});
  auto back =
      mw::template_from_xml(write_and_parse(tmpl, &mw::template_to_xml_into));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tmpl);
}

TEST(TupleXml, RejectsWrongRootElement) {
  auto doc = mw::xml_parse("<nottuple name=\"x\"/>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(mw::tuple_from_xml(*doc).has_value());
  EXPECT_FALSE(mw::template_from_xml(*doc).has_value());
}

TEST(TupleXml, RejectsMalformedValue) {
  auto doc = mw::xml_parse("<tuple name=\"x\"><int>abc</int></tuple>");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(mw::tuple_from_xml(*doc).has_value());
}

TEST(TupleXml, ValueNodesMatchGrammar) {
  const auto name_of = [](const space::Value& v) {
    return write_and_parse(v, &mw::value_to_xml_into).name;
  };
  EXPECT_EQ(name_of(space::Value(5)), "int");
  EXPECT_EQ(name_of(space::Value(1.5)), "float");
  EXPECT_EQ(name_of(space::Value(true)), "bool");
  EXPECT_EQ(name_of(space::Value("s")), "string");
  EXPECT_EQ(name_of(space::Value(std::vector<std::uint8_t>{1})), "bytes");
}

}  // namespace
}  // namespace tb
