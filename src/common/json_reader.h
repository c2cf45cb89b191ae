// JSON for the whole system: parse, build, dump. json::Node is the one
// JSON value type and its writer is the one JSON writer. The serve daemon
// decodes request bodies with the reader, the load generator reads the
// daemon's /metrics snapshot back, and the test battery asserts that every
// daemon response is well-formed JSON. Every report, snapshot, trace event,
// log record and error body is a Node built in code and written with
// dump() (indented) or dumpLine() (one line, no whitespace). The one
// exception is the flight recorder's crash dump, which formats into a
// fixed buffer because it runs in a signal handler and may not allocate.
// Zero-dependency (std + the obs/ escaper): it is built into mphls_obs,
// the bottom layer, so the tracer, metrics and logger write through it.
//
// Scope: full RFC 8259 value grammar (null, bool, number, string with
// \uXXXX escapes decoded to UTF-8, array, object), strict — trailing
// garbage, unbalanced brackets, bad escapes, bare words and invalid UTF-8
// inside strings all fail. Integers in [-2^63, 2^64) are held exactly,
// from integer constructors and from literals without fraction or
// exponent, and print digit for digit; every other number is a double.
// Object members preserve insertion order with first-key-wins lookup.
// The writer escapes every string through obs::appendJsonString, so its
// output is valid UTF-8 whatever bytes the strings hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
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
  Node(int v) : Node(static_cast<long long>(v)) {}
  Node(long v) : Node(static_cast<long long>(v)) {}
  Node(long long v);
  Node(unsigned v) : Node(static_cast<unsigned long long>(v)) {}
  Node(unsigned long v) : Node(static_cast<unsigned long long>(v)) {}
  Node(unsigned long long v);
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
  /// level. Exact integers print digit for digit, integral doubles without
  /// a fraction, other doubles with the fewest digits that round-trip,
  /// non-finite values as null.
  [[nodiscard]] std::string dump() const;
  /// The same serialization on one line: no whitespace at all and no
  /// trailing newline.
  [[nodiscard]] std::string dumpLine() const;
  /// dumpLine() appended to `out`.
  void appendLine(std::string& out) const;

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
  /// The exact value of an integer in [0, 2^64); nullopt for anything
  /// else, including integral doubles such as 1e3 or 2.0.
  [[nodiscard]] std::optional<std::uint64_t> uint64() const;
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

  void write(std::string& out, int depth, bool pretty) const;

  /// How a number is held: Unsigned for integers >= 0 and Signed for
  /// negative ones (exact, in bits_), Double otherwise. num_ holds the
  /// value in every case, rounded to a double for large integers.
  enum class Rep : unsigned char { Double, Signed, Unsigned };

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  Rep rep_ = Rep::Double;
  double num_ = 0;
  std::uint64_t bits_ = 0;
  std::string str_;
  std::vector<std::unique_ptr<Node>> items_;
  std::vector<std::pair<std::string, std::unique_ptr<Node>>> members_;
};

/// Write `doc.dump()` to `path`; returns false on I/O failure.
bool writeFile(const std::string& path, const Node& doc);

}  // namespace mphls::json
