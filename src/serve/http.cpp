#include "serve/http.h"

#include "common/json_reader.h"

namespace mphls::serve {

namespace {

[[nodiscard]] std::string toLower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

/// HTTP token characters (RFC 9110 tchar), the legal method alphabet.
[[nodiscard]] bool isTchar(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9'))
    return true;
  return std::string_view("!#$%&'*+-.^_`|~").find(c) != std::string_view::npos;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view nameLower) const {
  for (const auto& [k, v] : headers)
    if (k == nameLower) return &v;
  return nullptr;
}

void HttpParser::feed(std::string_view data) {
  if (errorCode_ != 0) return;  // poisoned: drop everything
  buf_.append(data.data(), data.size());
  // Compact once the consumed prefix dominates the buffer.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
}

HttpParser::Status HttpParser::failWith(int code, std::string reason) {
  errorCode_ = code;
  errorReason_ = std::move(reason);
  return Status::Error;
}

HttpParser::Status HttpParser::parseHead(std::string_view head,
                                         HttpRequest& out,
                                         std::size_t& contentLength) {
  out = HttpRequest{};
  contentLength = 0;

  // Request line: METHOD SP target SP HTTP/x.y  (CR already stripped).
  std::size_t eol = head.find('\n');
  std::string_view line = head.substr(0, eol);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.size() > limits_.maxRequestLine)
    return failWith(431, "request line too long");
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos)
    return failWith(400, "malformed request line");
  out.method = std::string(line.substr(0, sp1));
  out.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version = std::string(line.substr(sp2 + 1));
  if (out.method.empty() || out.method.size() > 16)
    return failWith(400, "malformed method");
  for (char c : out.method)
    if (!isTchar(c)) return failWith(400, "malformed method");
  if (out.target.empty() || out.target.front() != '/')
    return failWith(400, "malformed request target");
  if (out.version != "HTTP/1.1" && out.version != "HTTP/1.0")
    return failWith(400, "unsupported HTTP version");

  // Header fields.
  bool haveLength = false;
  std::size_t cursor = eol == std::string_view::npos ? head.size() : eol + 1;
  while (cursor < head.size()) {
    std::size_t end = head.find('\n', cursor);
    if (end == std::string_view::npos) end = head.size();
    std::string_view h = head.substr(cursor, end - cursor);
    cursor = end + 1;
    if (!h.empty() && h.back() == '\r') h.remove_suffix(1);
    if (h.empty()) continue;
    const std::size_t colon = h.find(':');
    if (colon == std::string_view::npos || colon == 0)
      return failWith(400, "malformed header field");
    std::string_view name = h.substr(0, colon);
    for (char c : name)
      if (!isTchar(c)) return failWith(400, "malformed header name");
    out.headers.emplace_back(toLower(name),
                             std::string(trim(h.substr(colon + 1))));
  }

  if (const std::string* te = out.header("transfer-encoding");
      te != nullptr && toLower(*te) != "identity")
    return failWith(501, "transfer-encoding not supported");

  if (const std::string* cl = out.header("content-length")) {
    if (cl->empty()) return failWith(400, "malformed Content-Length");
    std::size_t parsed = 0;
    for (char c : *cl) {
      if (c < '0' || c > '9') return failWith(400, "malformed Content-Length");
      const std::size_t digit = static_cast<std::size_t>(c - '0');
      if (parsed > (limits_.maxBodyBytes - digit) / 10 + 1)
        return failWith(413, "request body too large");
      parsed = parsed * 10 + digit;
    }
    if (parsed > limits_.maxBodyBytes)
      return failWith(413, "request body too large");
    contentLength = parsed;
    haveLength = true;
  }
  if (!haveLength && (out.method == "POST" || out.method == "PUT"))
    return failWith(411, "Content-Length required");

  // Keep-alive: 1.1 defaults on, 1.0 defaults off.
  const std::string* conn = out.header("connection");
  const std::string connLower = conn ? toLower(*conn) : "";
  out.keepAlive = out.version == "HTTP/1.1" ? connLower != "close"
                                            : connLower == "keep-alive";
  return Status::Ready;
}

HttpParser::Status HttpParser::next(HttpRequest& out) {
  if (errorCode_ != 0) return Status::Error;
  const std::string_view avail = std::string_view(buf_).substr(pos_);

  // Find the end of the header section: CRLFCRLF (bare-LF tolerated).
  std::size_t headEnd = std::string_view::npos;
  std::size_t bodyStart = 0;
  if (const std::size_t crlf = avail.find("\r\n\r\n");
      crlf != std::string_view::npos) {
    headEnd = crlf;
    bodyStart = crlf + 4;
  }
  if (const std::size_t lf = avail.find("\n\n");
      lf != std::string_view::npos && lf < headEnd) {
    headEnd = lf;
    bodyStart = lf + 2;
  }
  if (headEnd == std::string_view::npos) {
    if (avail.size() > limits_.maxRequestLine + limits_.maxHeaderBytes)
      return failWith(431, "request headers too large");
    return Status::NeedMore;
  }
  if (headEnd > limits_.maxRequestLine + limits_.maxHeaderBytes)
    return failWith(431, "request headers too large");

  std::size_t contentLength = 0;
  const Status head = parseHead(avail.substr(0, headEnd), out, contentLength);
  if (head != Status::Ready) return head;

  if (avail.size() - bodyStart < contentLength) {
    out = HttpRequest{};
    return Status::NeedMore;  // body still arriving
  }
  // Re-parse is avoided: parseHead already filled `out`; just attach the
  // body and consume the request's bytes.
  out.body = std::string(avail.substr(bodyStart, contentLength));
  pos_ += bodyStart + contentLength;
  return Status::Ready;
}

std::string_view statusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string renderResponse(int code, std::string_view body, bool keepAlive,
                           std::string_view contentType) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += statusText(code);
  out += "\r\nServer: mphls\r\nContent-Type: ";
  out += contentType;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keepAlive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

std::string errorBody(const std::string& reason) {
  json::Node j = json::Node::object();
  j["error"] = reason;
  return j.dumpLine() + "\n";
}

std::string renderErrorResponse(int code, const std::string& reason,
                                bool keepAlive) {
  return renderResponse(code, errorBody(reason), keepAlive);
}

}  // namespace mphls::serve
