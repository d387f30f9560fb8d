// XML-Tuples: the XML representation of tuples and templates.
//
// The paper's reference [8] (Moffat, "XML-Tuples and XML-Spaces") is the
// lineage of its "XML is used to represent data entries" choice. XmlCodec
// embeds this element grammar in every message:
//
//   <tuple name="sensor"><int>7</int><string>on</string></tuple>
//   <template name="sensor"><exact><int>7</int></exact><any/></template>
//
// Encoding appends through an XmlWriter; decoding reads the tree xml_parse()
// builds.
#pragma once

#include <optional>

#include "src/mw/xml.hpp"
#include "src/space/tuple.hpp"

namespace tb::mw {

/// Element grammar: value nodes.
void value_to_xml_into(const space::Value& value, XmlWriter& w);
std::optional<space::Value> value_from_xml(const XmlNode& node);

/// <tuple name="...">value*</tuple>
void tuple_to_xml_into(const space::Tuple& tuple, XmlWriter& w);
std::optional<space::Tuple> tuple_from_xml(const XmlNode& node);

/// <template [name="..."]>(<exact>value</exact>|<typed>t</typed>|<any/>)*</template>
void template_to_xml_into(const space::Template& tmpl, XmlWriter& w);
std::optional<space::Template> template_from_xml(const XmlNode& node);

}  // namespace tb::mw
