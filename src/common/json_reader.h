// JSON for the whole system: parse, build, dump. json::Node is the one
// JSON value type. The serve daemon decodes request bodies with the
// reader, the load generator reads the daemon's /metrics snapshot back,
// and the test battery asserts that every daemon response is well-formed
// JSON. The synth, sta and sim reports, serve's /designs and the fuzz,
// bench and loadgen reports are Nodes built in code and written with
// dump(). Zero-dependency (std + obs/) by design, like everything under
// obs/ and common/.
//
// Scope: full RFC 8259 value grammar (null, bool, number, string with
// \uXXXX escapes decoded to UTF-8, array, object), strict — trailing
// garbage, unbalanced brackets, bad escapes, bare words and invalid UTF-8
// inside strings all fail. Numbers are held as double, and object members
// preserve insertion order with first-key-wins lookup. dump() escapes
// every string through obs::appendJsonString, so its output is valid
// UTF-8 whatever bytes the strings hold.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mphls::json {

class Node;

/// Parse one complete JSON document. Returns nullptr on any syntax error
/// (use parseOrError for the position and message).
[[nodiscard]] std::unique_ptr<Node> parse(std::string_view text);

/// Parse with diagnostics: on failure the returned node is null and
/// `error` describes what went wrong and at which byte offset.
struct ParseError {
  std::string message;
  std::size_t offset = 0;
};
[[nodiscard]] std::unique_ptr<Node> parseOrError(std::string_view text,
                                                 ParseError& error);

/// True iff `text` is one well-formed JSON document.
[[nodiscard]] bool valid(std::string_view text);

/// One JSON value. Accessors are total: asking an object for a missing
/// key or a number for its string returns a default instead of throwing,
/// so response-shape checks read as straight-line code. Builders are
/// implicit conversions plus operator[] and push, so report code reads
/// as `j["cycles"] = n;`. Move-only; children are owned.
class Node {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Node() = default;
  Node(bool b) : kind_(Kind::Bool), bool_(b) {}
  Node(int v) : kind_(Kind::Number), num_(v) {}
  Node(long v) : kind_(Kind::Number), num_(static_cast<double>(v)) {}
  Node(std::size_t v) : kind_(Kind::Number), num_(static_cast<double>(v)) {}
  Node(double v) : kind_(Kind::Number), num_(v) {}
  Node(const char* s) : kind_(Kind::String), str_(s) {}
  Node(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  [[nodiscard]] static Node object();
  [[nodiscard]] static Node array();

  /// Object access; inserts a null member on first use. Converts a null
  /// value into an object. The reference stays valid as members are added.
  Node& operator[](std::string_view key);

  /// Array append. Converts a null value into an array.
  Node& push(Node v);

  /// Serialize with 2-space indentation and a trailing newline at the top
  /// level. Integral numbers print without a fraction, other doubles with
  /// the fewest digits that round-trip, non-finite values as null.
  [[nodiscard]] std::string dump() const;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isBool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool boolean(bool dflt = false) const {
    return isBool() ? bool_ : dflt;
  }
  [[nodiscard]] double number(double dflt = 0) const {
    return isNumber() ? num_ : dflt;
  }
  [[nodiscard]] const std::string& str() const { return str_; }

  /// Array elements (empty for non-arrays).
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& items() const {
    return items_;
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const Node* at(std::size_t i) const {
    return i < items_.size() ? items_[i].get() : nullptr;
  }

  /// Object members in document order (empty for non-objects).
  [[nodiscard]] const std::vector<std::pair<std::string, std::unique_ptr<Node>>>&
  members() const {
    return members_;
  }
  /// First member named `key`, or nullptr (also for non-objects).
  [[nodiscard]] const Node* get(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return get(key) != nullptr;
  }

  // Shape-checked conveniences: default when the member is missing or of
  // the wrong kind.
  [[nodiscard]] std::string getString(std::string_view key,
                                      std::string dflt = "") const;
  [[nodiscard]] double getNumber(std::string_view key, double dflt = 0) const;
  [[nodiscard]] bool getBool(std::string_view key, bool dflt = false) const;

 private:
  friend class Parser;

  void dumpTo(std::string& out, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<std::unique_ptr<Node>> items_;
  std::vector<std::pair<std::string, std::unique_ptr<Node>>> members_;
};

/// Write `doc.dump()` to `path`; returns false on I/O failure.
bool writeFile(const std::string& path, const Node& doc);

}  // namespace mphls::json
