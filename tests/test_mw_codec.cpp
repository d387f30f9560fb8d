#include "src/mw/codec.hpp"

#include <gtest/gtest.h>

#include "src/util/byte_buffer.hpp"
#include "src/util/status.hpp"

#include <climits>
#include <memory>

namespace tb::mw {
namespace {

Message sample_write_request() {
  Message m;
  m.type = MsgType::kWriteRequest;
  m.request_id = 77;
  m.created_at_ns = 123'456'789;
  m.tuple = space::Tuple(
      "entry", {space::Value(5), space::Value(2.5), space::Value(true),
                space::Value("text <&> 'quoted'"),
                space::Value(std::vector<std::uint8_t>{0xDE, 0xAD})});
  m.duration_ns = 160'000'000'000;
  return m;
}

Message sample_take_request() {
  Message m;
  m.type = MsgType::kTakeRequest;
  m.request_id = 78;
  m.created_at_ns = 1;
  m.tmpl = space::Template(
      std::string("entry"),
      {space::FieldPattern::exact(space::Value(5)),
       space::FieldPattern::typed(space::ValueType::kBytes),
       space::FieldPattern::any()});
  m.duration_ns = INT64_MAX;
  return m;
}

Message sample_response() {
  Message m;
  m.type = MsgType::kWriteResponse;
  m.request_id = 77;
  m.ok = true;
  m.handle = 12345;
  m.expires_at_ns = 999;
  return m;
}

// A write the server refused: ok=false always travels with a wire status,
// which is all the client reads to classify the failure.
Message sample_write_reject() {
  Message m;
  m.type = MsgType::kWriteResponse;
  m.request_id = 79;
  m.ok = false;
  m.error = "unknown transaction";
  m.status = static_cast<std::uint8_t>(util::StatusCode::kNotFound);
  return m;
}

Message sample_error() {
  Message m;
  m.type = MsgType::kError;
  m.request_id = 9;
  m.error = "bad things <happened>";
  return m;
}

class CodecRoundTrip
    : public ::testing::TestWithParam<std::pair<const char*, int>> {
 protected:
  std::unique_ptr<Codec> make_codec() const {
    if (std::string(GetParam().first) == "xml") {
      return std::make_unique<XmlCodec>();
    }
    return std::make_unique<BinaryCodec>();
  }

  Message sample() const {
    switch (GetParam().second) {
      case 0: return sample_write_request();
      case 1: return sample_take_request();
      case 2: return sample_response();
      case 3: return sample_error();
      default: return sample_write_reject();
    }
  }
};

TEST_P(CodecRoundTrip, EncodeDecodeIdentity) {
  auto codec = make_codec();
  const Message original = sample();
  const auto bytes = codec->encode(original);
  ASSERT_FALSE(bytes.empty());
  auto decoded = codec->decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllMessages, CodecRoundTrip,
    ::testing::Values(std::pair{"xml", 0}, std::pair{"xml", 1},
                      std::pair{"xml", 2}, std::pair{"xml", 3},
                      std::pair{"xml", 4}, std::pair{"binary", 0},
                      std::pair{"binary", 1}, std::pair{"binary", 2},
                      std::pair{"binary", 3}, std::pair{"binary", 4}));

// Round-trip failures print Message::to_string; pin its text.
TEST(MessageText, ErrorWithStatusEpochAndText) {
  Message m;
  m.type = MsgType::kError;
  m.request_id = 42;
  m.status = static_cast<std::uint8_t>(util::StatusCode::kFailedPrecondition);
  m.epoch = 7;
  m.error = "type_key not owned by this node";
  EXPECT_EQ(m.to_string(),
            "error#42 status=failed_precondition epoch=7 "
            "error=type_key not owned by this node");

  m.type = MsgType::kWriteRequest;
  m.status = 0;
  m.epoch = 0;
  m.error.clear();
  m.tuple = space::make_tuple("t", std::int64_t{1});
  EXPECT_EQ(m.to_string(), "write-req#42 t(1)");
}

TEST(MessageText, EveryStatusCodeHasAStableName) {
  const std::pair<util::StatusCode, const char*> names[] = {
      {util::StatusCode::kOk, "ok"},
      {util::StatusCode::kInvalidArgument, "invalid_argument"},
      {util::StatusCode::kNotFound, "not_found"},
      {util::StatusCode::kDeadlineExceeded, "deadline_exceeded"},
      {util::StatusCode::kResourceExhausted, "resource_exhausted"},
      {util::StatusCode::kAborted, "aborted"},
      {util::StatusCode::kUnavailable, "unavailable"},
      {util::StatusCode::kFailedPrecondition, "failed_precondition"},
      {util::StatusCode::kUnimplemented, "unimplemented"},
  };
  for (const auto& [code, name] : names) {
    EXPECT_EQ(util::status_code_name(code), name);
  }
  EXPECT_EQ(util::status_code_name(static_cast<util::StatusCode>(200)),
            "unknown");
}

TEST(XmlCodecTest, ProducesReadableXml) {
  XmlCodec codec;
  const auto bytes = codec.encode(sample_write_request());
  const std::string text(bytes.begin(), bytes.end());
  EXPECT_NE(text.find("<msg"), std::string::npos);
  EXPECT_NE(text.find("type=\"write-req\""), std::string::npos);
  EXPECT_NE(text.find("<tuple name=\"entry\""), std::string::npos);
}

TEST(XmlCodecTest, RejectsGarbage) {
  XmlCodec codec;
  const std::vector<std::uint8_t> garbage = {'h', 'i'};
  EXPECT_FALSE(codec.decode(garbage).has_value());
}

TEST(XmlCodecTest, RejectsWrongRoot) {
  XmlCodec codec;
  const std::string text = "<notmsg/>";
  EXPECT_FALSE(
      codec.decode({reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size()})
          .has_value());
}

// Wire-protocol negotiation: a type tag from a newer protocol revision is
// not a decode failure. The header still decodes — request id preserved —
// as a kUnknownFrame sentinel, so the server can answer a typed
// kUnimplemented instead of dropping the session.
TEST(XmlCodecTest, UnknownTypeDecodesAsUnknownFrame) {
  XmlCodec codec;
  const std::string text = R"(<msg type="hologram-req" id="41"/>)";
  auto decoded =
      codec.decode({reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size()});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kUnknownFrame);
  EXPECT_EQ(decoded->request_id, 41u);
}

TEST(BinaryCodecTest, UnknownTypeDecodesAsUnknownFrame) {
  BinaryCodec codec;
  auto bytes = codec.encode(sample_response());
  // A future revision's frame kind: the type byte is past everything this
  // build knows. Only the fixed header (type, id, timestamp) is readable.
  bytes[0] = 0x7E;
  auto decoded = codec.decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kUnknownFrame);
  EXPECT_EQ(decoded->request_id, sample_response().request_id);
}

TEST(BinaryCodecTest, RejectsTruncated) {
  BinaryCodec codec;
  auto bytes = codec.encode(sample_write_request());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(codec.decode(bytes).has_value());
}

TEST(BinaryCodecTest, RejectsTrailingBytes) {
  BinaryCodec codec;
  auto bytes = codec.encode(sample_response());
  bytes.push_back(0);
  EXPECT_FALSE(codec.decode(bytes).has_value());
}

TEST(BinaryCodecTest, RejectsEmpty) {
  BinaryCodec codec;
  EXPECT_FALSE(codec.decode({}).has_value());
}

// A hand-built binary frame: the header up to and including the flags byte.
util::ByteBuffer frame_header(MsgType type, std::uint8_t flags) {
  util::ByteBuffer buf;
  buf.put_u8(static_cast<std::uint8_t>(type));
  buf.put_varint(5);  // request id
  buf.put_i64(0);     // created_at_ns
  buf.put_u8(flags);
  return buf;
}

// The fixed fields every frame ends with: duration, handle, expires, txn
// and an empty error string.
std::vector<std::uint8_t> end_frame(util::ByteBuffer buf) {
  buf.put_i64(0);
  buf.put_varint(0);
  buf.put_i64(0);
  buf.put_varint(0);
  buf.put_string("");
  return buf.take();
}

// A tuple's field count arrives before its fields. A count the input cannot
// hold is malformed: decode answers nullopt instead of reserving 2^50
// fields and letting std::bad_alloc escape.
TEST(BinaryCodecTest, RejectsFieldCountBeyondTheInput) {
  util::ByteBuffer buf = frame_header(MsgType::kWriteRequest, /*tuple*/ 0x01);
  buf.put_string("t");
  buf.put_varint(std::uint64_t{1} << 50);
  const std::vector<std::uint8_t> bytes = end_frame(std::move(buf));
  BinaryCodec codec;
  std::optional<Message> decoded;
  EXPECT_NO_THROW(decoded = codec.decode(bytes));
  EXPECT_FALSE(decoded.has_value());
}

// A typed pattern names a ValueType; a tag past kBytes names none. The XML
// codec could not re-encode such a pattern, so the binary decode rejects
// it as it rejects an unknown value tag.
TEST(BinaryCodecTest, RejectsUnknownTypedPatternTag) {
  util::ByteBuffer buf = frame_header(MsgType::kTakeRequest, /*template*/ 0x02);
  buf.put_u8(1);  // named
  buf.put_string("t");
  buf.put_varint(1);  // one field
  buf.put_u8(1);      // typed pattern
  buf.put_u8(static_cast<std::uint8_t>(space::ValueType::kBytes) + 1);
  EXPECT_FALSE(BinaryCodec().decode(end_frame(std::move(buf))).has_value());
}

// Flag bits the codec does not define carry nothing it could decode.
TEST(BinaryCodecTest, RejectsUnknownFlagBits) {
  for (const std::uint8_t flag : {0x08, 0x10, 0x80}) {
    SCOPED_TRACE(flag);
    const auto bytes = end_frame(frame_header(MsgType::kWriteResponse, flag));
    EXPECT_FALSE(BinaryCodec().decode(bytes).has_value());
  }
  // The same frame with no flag set decodes.
  EXPECT_TRUE(BinaryCodec()
                  .decode(end_frame(frame_header(MsgType::kWriteResponse, 0)))
                  .has_value());
}

TEST(CodecComparison, BinaryIsSubstantiallySmallerThanXml) {
  XmlCodec xml;
  BinaryCodec binary;
  const Message m = sample_write_request();
  const auto xml_size = xml.encode(m).size();
  const auto bin_size = binary.encode(m).size();
  EXPECT_LT(bin_size * 2, xml_size)
      << "xml=" << xml_size << " binary=" << bin_size;
}

TEST(XmlCodecTest, ForeverDurationSurvives) {
  XmlCodec codec;
  Message m = sample_take_request();  // duration = INT64_MAX
  auto decoded = codec.decode(codec.encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->duration_ns, INT64_MAX);
}

TEST(XmlCodecTest, NegativeTimestampsSurvive) {
  XmlCodec codec;
  Message m = sample_response();
  m.created_at_ns = -5;
  auto decoded = codec.decode(codec.encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->created_at_ns, -5);
}

TEST(CodecTest, FloatPrecisionPreserved) {
  for (Codec* codec :
       std::initializer_list<Codec*>{new XmlCodec, new BinaryCodec}) {
    Message m;
    m.type = MsgType::kWriteRequest;
    m.request_id = 1;
    m.tuple = space::make_tuple("f", space::Value(0.1 + 0.2));
    auto decoded = codec->decode(codec->encode(m));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->tuple->fields[0].as_float(), 0.1 + 0.2);
    delete codec;
  }
}

TEST(CodecTest, EmptyTupleAndTemplate) {
  BinaryCodec codec;
  Message m;
  m.type = MsgType::kWriteRequest;
  m.request_id = 2;
  m.tuple = space::make_tuple("empty");
  m.tmpl = space::Template(std::nullopt, {});
  auto decoded = codec.decode(codec.encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

// Routing epoch (DESIGN.md §16): carried on mis-route rejects, omitted on
// the wire when 0 so pre-federation encodings stay byte-identical.
TEST(CodecTest, EpochRoundTripsAndZeroIsFree) {
  for (Codec* codec :
       std::initializer_list<Codec*>{new XmlCodec, new BinaryCodec}) {
    Message reject = sample_error();
    reject.status = 7;  // kFailedPrecondition
    reject.epoch = 42;
    auto decoded = codec->decode(codec->encode(reject));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, reject);
    EXPECT_EQ(decoded->epoch, 42u);

    Message plain = sample_error();
    const auto with_epoch_size = codec->encode(reject).size();
    const auto without_epoch_size = codec->encode(plain).size();
    EXPECT_LT(without_epoch_size, with_epoch_size);
    delete codec;
  }
}

// Federation frames round-trip through both codecs.
TEST(CodecTest, FederationFramesRoundTrip) {
  std::vector<Message> frames;
  {
    Message peek;
    peek.type = MsgType::kPeekRequest;
    peek.request_id = 100;
    peek.tmpl = space::Template(std::nullopt,
                                {space::FieldPattern::typed(
                                    space::ValueType::kInt)});
    frames.push_back(peek);

    Message peeked;
    peeked.type = MsgType::kPeekResponse;
    peeked.request_id = 100;
    peeked.ok = true;
    peeked.tuple = space::make_tuple("entry", space::Value(7));
    peeked.handle = 314;  // global ticket
    frames.push_back(peeked);

    Message directed;
    directed.type = MsgType::kTakeByIdRequest;
    directed.request_id = 101;
    directed.handle = 314;
    frames.push_back(directed);

    Message repl_write;
    repl_write.type = MsgType::kReplicateWriteRequest;
    repl_write.request_id = 102;
    repl_write.tuple = space::make_tuple("entry", space::Value(7));
    repl_write.handle = 314;
    repl_write.duration_ns = INT64_MAX;
    frames.push_back(repl_write);

    Message repl_take;
    repl_take.type = MsgType::kReplicateTakeRequest;
    repl_take.request_id = 103;
    repl_take.tmpl = space::Template(
        std::string("entry"),
        {space::FieldPattern::exact(space::Value(7))});
    repl_take.handle = 314;
    frames.push_back(repl_take);

    Message repl_ack;
    repl_ack.type = MsgType::kReplicateResponse;
    repl_ack.request_id = 103;
    repl_ack.ok = true;
    frames.push_back(repl_ack);
  }
  for (Codec* codec :
       std::initializer_list<Codec*>{new XmlCodec, new BinaryCodec}) {
    for (const Message& frame : frames) {
      auto decoded = codec->decode(codec->encode(frame));
      ASSERT_TRUE(decoded.has_value()) << frame.to_string();
      EXPECT_EQ(*decoded, frame);
    }
    delete codec;
  }
}

}  // namespace
}  // namespace tb::mw
