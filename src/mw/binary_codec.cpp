// BinaryCodec: the compact encoding of one Message.
//
//   type u8 | request_id varint | created_at_ns i64 | flags u8
//   [tuple] [template] | duration_ns i64 | handle varint |
//   expires_at_ns i64 | txn varint | error string | [status u8] [epoch varint]
//
// Bracketed parts appear only when their flag bit is set, so a message
// that leaves them at their defaults pays nothing for them.
// tests/golden/binary_codec.txt pins the bytes.
//
// decode() returns nullopt for any input it cannot represent: truncated or
// trailing bytes, unknown flag bits, unknown value or pattern tags, and
// counts larger than the remaining input could hold. Only a type byte past
// the last known kind decodes, header only, as kUnknownFrame.
#include "src/mw/codec.hpp"
#include "src/util/assert.hpp"
#include "src/util/byte_buffer.hpp"

namespace tb::mw {
namespace {

constexpr std::uint8_t kHasTuple = 0x01;
constexpr std::uint8_t kHasTemplate = 0x02;
constexpr std::uint8_t kOkFlag = 0x04;
constexpr std::uint8_t kHasStatus = 0x20;       ///< non-OK canonical status
constexpr std::uint8_t kHasEpoch = 0x40;        ///< non-zero routing epoch
constexpr std::uint8_t kKnownFlags =
    kHasTuple | kHasTemplate | kOkFlag | kHasStatus | kHasEpoch;

void put_value(util::ByteBuffer& buf, const space::Value& value) {
  buf.put_u8(static_cast<std::uint8_t>(value.type()));
  switch (value.type()) {
    case space::ValueType::kInt: buf.put_i64(value.as_int()); break;
    case space::ValueType::kFloat: buf.put_f64(value.as_float()); break;
    case space::ValueType::kBool: buf.put_u8(value.as_bool() ? 1 : 0); break;
    case space::ValueType::kString: buf.put_string(value.as_string()); break;
    case space::ValueType::kBytes: buf.put_bytes(value.as_bytes()); break;
  }
}

space::Value get_value(util::ByteCursor& cursor) {
  const auto type = static_cast<space::ValueType>(cursor.get_u8());
  switch (type) {
    case space::ValueType::kInt: return space::Value(cursor.get_i64());
    case space::ValueType::kFloat: return space::Value(cursor.get_f64());
    case space::ValueType::kBool: return space::Value(cursor.get_u8() != 0);
    case space::ValueType::kString: return space::Value(cursor.get_string());
    case space::ValueType::kBytes: return space::Value(cursor.get_bytes());
  }
  throw util::PreconditionError("unknown value type tag");
}

void put_tuple(util::ByteBuffer& buf, const space::Tuple& tuple) {
  buf.put_string(tuple.name);
  buf.put_varint(tuple.fields.size());
  for (const space::Value& v : tuple.fields) put_value(buf, v);
}

space::Tuple get_tuple(util::ByteCursor& cursor) {
  space::Tuple tuple;
  tuple.name = cursor.get_string();
  const std::uint64_t count = cursor.get_varint();
  // Every field takes at least one byte: a larger count is malformed, and
  // reserving it first could throw std::bad_alloc instead.
  if (count > cursor.remaining()) {
    throw util::PreconditionError("field count exceeds the input");
  }
  tuple.fields.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) tuple.fields.push_back(get_value(cursor));
  return tuple;
}

void put_template(util::ByteBuffer& buf, const space::Template& tmpl) {
  buf.put_u8(tmpl.name.has_value() ? 1 : 0);
  if (tmpl.name) buf.put_string(*tmpl.name);
  buf.put_varint(tmpl.fields.size());
  for (const space::FieldPattern& p : tmpl.fields) {
    if (p.is_exact()) {
      buf.put_u8(0);
      put_value(buf, p.exact_value());
    } else if (p.is_typed()) {
      buf.put_u8(1);
      buf.put_u8(static_cast<std::uint8_t>(p.typed_type()));
    } else {
      buf.put_u8(2);
    }
  }
}

space::Template get_template(util::ByteCursor& cursor) {
  space::Template tmpl;
  if (cursor.get_u8() != 0) tmpl.name = cursor.get_string();
  const std::uint64_t count = cursor.get_varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t kind = cursor.get_u8();
    switch (kind) {
      case 0: tmpl.fields.push_back(space::FieldPattern::exact(get_value(cursor))); break;
      case 1: {
        const std::uint8_t tag = cursor.get_u8();
        if (tag > static_cast<std::uint8_t>(space::ValueType::kBytes)) {
          throw util::PreconditionError("unknown typed pattern tag");
        }
        tmpl.fields.push_back(
            space::FieldPattern::typed(static_cast<space::ValueType>(tag)));
        break;
      }
      case 2: tmpl.fields.push_back(space::FieldPattern::any()); break;
      default: throw util::PreconditionError("unknown field pattern tag");
    }
  }
  return tmpl;
}

}  // namespace

void BinaryCodec::encode_into(const Message& message,
                              std::vector<std::uint8_t>& out) const {
  // Move the caller's buffer through the ByteBuffer so appends land directly
  // in it, with a size hint covering the fixed fields plus payload.
  util::ByteBuffer buf(std::move(out));
  std::size_t hint = buf.size() + 48 + message.error.size();
  if (message.tuple) hint += 16 + message.tuple->byte_size();
  if (message.tmpl) hint += 16 + 24 * message.tmpl->fields.size();
  buf.reserve(hint);
  buf.put_u8(static_cast<std::uint8_t>(message.type));
  buf.put_varint(message.request_id);
  buf.put_i64(message.created_at_ns);
  std::uint8_t flags = 0;
  if (message.tuple) flags |= kHasTuple;
  if (message.tmpl) flags |= kHasTemplate;
  if (message.ok) flags |= kOkFlag;
  if (message.status != 0) flags |= kHasStatus;
  if (message.epoch != 0) flags |= kHasEpoch;
  buf.put_u8(flags);
  if (message.tuple) put_tuple(buf, *message.tuple);
  if (message.tmpl) put_template(buf, *message.tmpl);
  buf.put_i64(message.duration_ns);
  buf.put_varint(message.handle);
  buf.put_i64(message.expires_at_ns);
  buf.put_varint(message.txn);
  buf.put_string(message.error);
  if (message.status != 0) buf.put_u8(message.status);
  if (message.epoch != 0) buf.put_varint(message.epoch);
  out = buf.take();
}

std::optional<Message> BinaryCodec::decode(
    std::span<const std::uint8_t> bytes) const {
  try {
    util::ByteCursor cursor(bytes);
    Message message;
    const std::uint8_t type = cursor.get_u8();
    if (type >= static_cast<std::uint8_t>(MsgType::kUnknownFrame)) {
      // A frame kind from a newer protocol revision. The fixed header
      // (type, request id, timestamp) decodes on every revision; the rest
      // of the layout is unknowable, so surface a kUnknownFrame sentinel
      // carrying the correlation id — the dispatcher answers it with a
      // typed kUnimplemented reply instead of dropping the session.
      message.type = MsgType::kUnknownFrame;
      message.request_id = cursor.get_varint();
      message.created_at_ns = cursor.get_i64();
      return message;
    }
    message.type = static_cast<MsgType>(type);
    message.request_id = cursor.get_varint();
    message.created_at_ns = cursor.get_i64();
    const std::uint8_t flags = cursor.get_u8();
    if (flags & ~kKnownFlags) return std::nullopt;
    if (flags & kHasTuple) message.tuple = get_tuple(cursor);
    if (flags & kHasTemplate) message.tmpl = get_template(cursor);
    message.ok = (flags & kOkFlag) != 0;
    message.duration_ns = cursor.get_i64();
    message.handle = cursor.get_varint();
    message.expires_at_ns = cursor.get_i64();
    message.txn = cursor.get_varint();
    message.error = cursor.get_string();
    if (flags & kHasStatus) message.status = cursor.get_u8();
    if (flags & kHasEpoch) message.epoch = cursor.get_varint();
    if (!cursor.at_end()) return std::nullopt;
    return message;
  } catch (const util::PreconditionError&) {
    return std::nullopt;  // truncated or malformed
  }
}

}  // namespace tb::mw
