#include "common/json_reader.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/trace.h"

namespace mphls::json {

namespace {

/// Recursive-descent parser over the whole input. Depth is bounded so a
/// hostile request body of 100k '[' cannot blow the stack.
constexpr int kMaxDepth = 64;

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<Node> run(ParseError& error) {
    auto node = value(0);
    skipWs();
    if (node && pos_ != text_.size()) {
      fail("trailing characters after JSON value");
      node.reset();
    }
    if (!node) {
      error.message = error_.empty() ? "invalid JSON" : error_;
      error.offset = errorPos_;
    }
    return node;
  }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skipWs() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  std::nullptr_t fail(const std::string& msg) {
    if (error_.empty()) {
      error_ = msg;
      errorPos_ = pos_;
    }
    return nullptr;
  }

  bool expect(char c, const char* what) {
    skipWs();
    if (eof() || peek() != c) {
      fail(std::string("expected ") + what);
      return false;
    }
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::unique_ptr<Node> value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skipWs();
    if (eof()) return fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return string();
      case 't':
        if (literal("true")) return std::make_unique<Node>(true);
        return fail("bad literal");
      case 'f':
        if (literal("false")) return std::make_unique<Node>(false);
        return fail("bad literal");
      case 'n':
        if (literal("null")) return std::make_unique<Node>();
        return fail("bad literal");
      default:
        return number();
    }
  }

  std::unique_ptr<Node> object(int depth) {
    ++pos_;  // '{'
    auto n = std::make_unique<Node>(Node::object());
    skipWs();
    if (!eof() && peek() == '}') {
      ++pos_;
      return n;
    }
    for (;;) {
      skipWs();
      if (eof() || peek() != '"') return fail("expected object key");
      auto key = string();
      if (!key) return nullptr;
      if (!expect(':', "':'")) return nullptr;
      auto val = value(depth + 1);
      if (!val) return nullptr;
      n->members_.emplace_back(std::move(key->str_), std::move(val));
      skipWs();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return n;
      }
      return fail("expected ',' or '}'");
    }
  }

  std::unique_ptr<Node> array(int depth) {
    ++pos_;  // '['
    auto n = std::make_unique<Node>(Node::array());
    skipWs();
    if (!eof() && peek() == ']') {
      ++pos_;
      return n;
    }
    for (;;) {
      auto val = value(depth + 1);
      if (!val) return nullptr;
      n->items_.push_back(std::move(val));
      skipWs();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return n;
      }
      return fail("expected ',' or ']'");
    }
  }

  /// Append one code point as UTF-8.
  static void appendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    pos_ += 4;
    return true;
  }

  std::unique_ptr<Node> string() {
    ++pos_;  // '"'
    auto n = std::make_unique<Node>(std::string());
    std::string& out = n->str_;
    while (!eof()) {
      const char c = peek();
      if (static_cast<unsigned char>(c) >= 0x80) {
        // Raw bytes must form valid UTF-8: the same decoder the escaper
        // uses, so whatever the reader accepts dumps back unchanged.
        const std::size_t len = obs::utf8SequenceLength(text_, pos_);
        if (len == 0) return fail("invalid UTF-8 in string");
        out.append(text_.substr(pos_, len));
        pos_ += len;
        continue;
      }
      ++pos_;
      if (c == '"') return n;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(cp)) return fail("bad \\u escape");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: the low half must follow immediately.
            unsigned lo = 0;
            if (!literal("\\u") || !hex4(lo) || lo < 0xDC00 || lo > 0xDFFF)
              return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  std::unique_ptr<Node> number() {
    const std::size_t start = pos_;
    const bool negative = !eof() && peek() == '-';
    if (negative) ++pos_;
    const std::size_t digits = pos_;
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    if (pos_ == digits) return fail("invalid number");
    // No leading zeros ("01"), per the RFC.
    if (pos_ - digits > 1 && text_[digits] == '0')
      return fail("leading zero in number");
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      const std::size_t frac = pos_;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == frac) return fail("missing fraction digits");
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      const std::size_t exp = pos_;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
      if (pos_ == exp) return fail("missing exponent digits");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // Integer literals in range stay exact ("-0" stays the double -0).
    if (integral && !negative) {
      unsigned long long u = 0;
      if (std::from_chars(first, last, u).ec == std::errc())
        return std::make_unique<Node>(u);
    } else if (integral) {
      long long i = 0;
      if (std::from_chars(first, last, i).ec == std::errc() && i != 0)
        return std::make_unique<Node>(i);
    }
    return std::make_unique<Node>(
        std::strtod(std::string(first, last).c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  std::size_t errorPos_ = 0;
};

std::unique_ptr<Node> parseOrError(std::string_view text, ParseError& error) {
  return Parser(text).run(error);
}

std::unique_ptr<Node> parse(std::string_view text) {
  ParseError err;
  return parseOrError(text, err);
}

bool valid(std::string_view text) { return parse(text) != nullptr; }

Node::Node(long long v)
    : kind_(Kind::Number),
      rep_(v < 0 ? Rep::Signed : Rep::Unsigned),
      num_(static_cast<double>(v)),
      bits_(static_cast<std::uint64_t>(v)) {}

Node::Node(unsigned long long v)
    : kind_(Kind::Number),
      rep_(Rep::Unsigned),
      num_(static_cast<double>(v)),
      bits_(v) {}

std::optional<std::uint64_t> Node::uint64() const {
  if (kind_ == Kind::Number && rep_ == Rep::Unsigned) return bits_;
  return std::nullopt;
}

const Node* Node::get(std::string_view key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return v.get();
  return nullptr;
}

std::string Node::getString(std::string_view key, std::string dflt) const {
  const Node* n = get(key);
  return n && n->isString() ? n->str_ : std::move(dflt);
}

double Node::getNumber(std::string_view key, double dflt) const {
  const Node* n = get(key);
  return n && n->isNumber() ? n->num_ : dflt;
}

bool Node::getBool(std::string_view key, bool dflt) const {
  const Node* n = get(key);
  return n && n->isBool() ? n->bool_ : dflt;
}

Node Node::object() {
  Node v;
  v.kind_ = Kind::Object;
  return v;
}

Node Node::array() {
  Node v;
  v.kind_ = Kind::Array;
  return v;
}

Node& Node::operator[](std::string_view key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  for (auto& [k, v] : members_)
    if (k == key) return *v;
  members_.emplace_back(std::string(key), std::make_unique<Node>());
  return *members_.back().second;
}

Node& Node::push(Node v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  items_.push_back(std::make_unique<Node>(std::move(v)));
  return *items_.back();
}

namespace {

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int prec = 6; prec < 17; ++prec) {
    char probe[40];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    double back = 0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) {
      out += probe;
      return;
    }
  }
  out += buf;
}

}  // namespace

void Node::write(std::string& out, int depth, bool pretty) const {
  char digits[24];
  switch (kind_) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += bool_ ? "true" : "false"; return;
    case Kind::Number:
      if (rep_ == Rep::Double) {
        appendNumber(out, num_);
      } else {
        const auto r =
            rep_ == Rep::Signed
                ? std::to_chars(digits, digits + sizeof digits,
                                static_cast<std::int64_t>(bits_))
                : std::to_chars(digits, digits + sizeof digits, bits_);
        out.append(digits, r.ptr);
      }
      return;
    case Kind::String: obs::appendJsonString(out, str_); return;
    case Kind::Array:
    case Kind::Object: break;
  }
  const bool isArr = kind_ == Kind::Array;
  const std::size_t n = isArr ? items_.size() : members_.size();
  out += isArr ? '[' : '{';
  if (n == 0) {
    out += isArr ? ']' : '}';
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    if (pretty) {
      out += '\n';
      out.append(static_cast<std::size_t>(depth + 1) * 2, ' ');
    }
    if (isArr) {
      items_[i]->write(out, depth + 1, pretty);
      continue;
    }
    obs::appendJsonString(out, members_[i].first);
    out += pretty ? ": " : ":";
    members_[i].second->write(out, depth + 1, pretty);
  }
  if (pretty) {
    out += '\n';
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  }
  out += isArr ? ']' : '}';
}

std::string Node::dump() const {
  std::string out;
  write(out, 0, true);
  out += '\n';
  return out;
}

std::string Node::dumpLine() const {
  std::string out;
  appendLine(out);
  return out;
}

void Node::appendLine(std::string& out) const { write(out, 0, false); }

bool writeFile(const std::string& path, const Node& doc) {
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump();
  return static_cast<bool>(out);
}

}  // namespace mphls::json
