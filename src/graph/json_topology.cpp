#include "graph/json_topology.hpp"

#include <optional>
#include <utility>

#include "util/json.hpp"

namespace drift::graph {

namespace {

// ---------------------------------------------------------------------
// Document -> Graph conversion with schema errors.
// ---------------------------------------------------------------------

bool is_string(const JsonValue* v) { return v != nullptr && v->is_string(); }

bool is_array(const JsonValue* v) { return v != nullptr && v->is_array(); }

void convert_attrs(const JsonValue& attrs, Node& node,
                   std::vector<std::string>& errors) {
  for (const auto& [key, value] : attrs.as_object()) {
    switch (value.kind()) {
      case JsonValue::Kind::kInt:
        node.attrs[key] = Attr::of_int(value.as_int());
        break;
      case JsonValue::Kind::kString:
        node.attrs[key] = Attr::of_string(value.as_string());
        break;
      default:
        // No op reads a fractional number: a number must be an integer.
        errors.push_back("node '" + node.name + "': attribute '" + key +
                         "' must be an integer" +
                         (value.is_number() ? "" : " or a string"));
        break;
    }
  }
}

void convert_graph(const JsonValue& doc, TopologyParseResult& result) {
  if (!doc.is_object()) {
    result.errors.push_back("topology document must be a JSON object");
    return;
  }
  const auto string_field = [&](const char* key, std::string& out,
                                bool required) {
    const JsonValue* v = doc.get(key);
    if (v == nullptr) {
      if (required) {
        result.errors.push_back(std::string("missing field '") + key + "'");
      }
      return;
    }
    if (!v->is_string()) {
      result.errors.push_back(std::string("field '") + key +
                              "' must be a string");
      return;
    }
    out = v->as_string();
  };
  string_field("name", result.graph.name, /*required=*/true);
  string_field("family", result.graph.family, /*required=*/false);

  if (const JsonValue* inputs = doc.get("inputs")) {
    if (!inputs->is_array()) {
      result.errors.push_back("field 'inputs' must be an array");
    } else {
      for (const JsonValue& item : inputs->as_array()) {
        GraphInput in;
        const JsonValue* name = item.get("name");
        const JsonValue* shape = item.get("shape");
        if (!is_string(name) || !is_array(shape)) {
          result.errors.push_back(
              "each input must be {\"name\": ..., \"shape\": [...]}");
          continue;
        }
        in.name = name->as_string();
        for (const JsonValue& dim : shape->as_array()) {
          if (dim.kind() != JsonValue::Kind::kInt) {
            result.errors.push_back("node '" + in.name +
                                    "': shape entries must be integers");
            break;
          }
          in.dims.push_back(dim.as_int());
        }
        result.graph.inputs.push_back(std::move(in));
      }
    }
  } else {
    result.errors.push_back("missing field 'inputs'");
  }

  if (const JsonValue* nodes = doc.get("nodes")) {
    if (!nodes->is_array()) {
      result.errors.push_back("field 'nodes' must be an array");
    } else {
      for (const JsonValue& item : nodes->as_array()) {
        Node node;
        const JsonValue* name = item.get("name");
        const JsonValue* op = item.get("op");
        if (!is_string(name) || !is_string(op)) {
          result.errors.push_back(
              "each node must carry string fields 'name' and 'op'");
          continue;
        }
        node.name = name->as_string();
        node.op = op->as_string();
        if (const JsonValue* node_inputs = item.get("inputs")) {
          if (!node_inputs->is_array()) {
            result.errors.push_back("node '" + node.name +
                                    "': 'inputs' must be an array");
          } else {
            for (const JsonValue& in_name : node_inputs->as_array()) {
              if (!in_name.is_string()) {
                result.errors.push_back("node '" + node.name +
                                        "': inputs must be strings");
                break;
              }
              node.inputs.push_back(in_name.as_string());
            }
          }
        }
        if (const JsonValue* attrs = item.get("attrs")) {
          if (!attrs->is_object()) {
            result.errors.push_back("node '" + node.name +
                                    "': 'attrs' must be an object");
          } else {
            convert_attrs(*attrs, node, result.errors);
          }
        }
        result.graph.nodes.push_back(std::move(node));
      }
    }
  } else {
    result.errors.push_back("missing field 'nodes'");
  }

  if (const JsonValue* outputs = doc.get("outputs")) {
    if (!outputs->is_array()) {
      result.errors.push_back("field 'outputs' must be an array");
    } else {
      for (const JsonValue& out_name : outputs->as_array()) {
        if (!out_name.is_string()) {
          result.errors.push_back("outputs must be strings");
          break;
        }
        result.graph.outputs.push_back(out_name.as_string());
      }
    }
  } else {
    result.errors.push_back("missing field 'outputs'");
  }
}

}  // namespace

TopologyParseResult parse_topology(const std::string& text) {
  TopologyParseResult result;
  JsonError error;
  const std::optional<JsonValue> doc = parse_json(text, error);
  if (!doc) {
    result.errors.push_back(error.what());
    return result;
  }
  convert_graph(*doc, result);
  return result;
}

}  // namespace drift::graph
