// Hand-rolled HTTP/1.1 message layer for the synthesis daemon — house
// style: zero dependencies beyond std and POSIX sockets, incremental
// parsing (bytes arrive in arbitrary fragments), hard limits on every
// dimension an untrusted peer controls, and precise 4xx classification so
// the protocol test battery can assert exact status codes.
//
// Scope (all the daemon needs, nothing more): request line + headers +
// Content-Length-delimited bodies, keep-alive accounting, and response
// rendering. No chunked transfer encoding (501), no multipart, no TLS.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mphls::serve {

/// Parser limits: every dimension a client controls is capped so a
/// hostile or broken peer cannot make the daemon allocate unboundedly.
struct HttpLimits {
  std::size_t maxRequestLine = 8 * 1024;
  std::size_t maxHeaderBytes = 32 * 1024;
  /// Request body cap; oversized requests are rejected with 413 before
  /// any body byte is buffered.
  std::size_t maxBodyBytes = 4 * 1024 * 1024;
};

/// One parsed request. Header names are lower-cased at parse time.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;  ///< "HTTP/1.0" or "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keepAlive = true;  ///< per Connection header + version default

  /// First header named `nameLower`, or nullptr.
  [[nodiscard]] const std::string* header(std::string_view nameLower) const;
};

/// Incremental request parser for one connection. Feed raw bytes as they
/// arrive; poll next() for complete requests. After an Error the parser
/// is poisoned (a framing error leaves the byte stream unsynchronized) —
/// the connection must send the error response and close.
class HttpParser {
 public:
  explicit HttpParser(HttpLimits limits = {}) : limits_(limits) {}

  /// Append received bytes to the parse buffer.
  void feed(std::string_view data);

  enum class Status {
    NeedMore,  ///< no complete request buffered yet
    Ready,     ///< `out` holds the next request
    Error,     ///< protocol violation; see errorCode()/errorReason()
  };

  /// Extract the next complete request (keep-alive connections carry many
  /// in sequence). Consumes the request's bytes on Ready.
  [[nodiscard]] Status next(HttpRequest& out);

  /// HTTP status for the violation: 400 malformed, 411 length required,
  /// 413 body too large, 431 request line/headers too large, 501
  /// transfer-encoding not implemented. 0 while no error.
  [[nodiscard]] int errorCode() const { return errorCode_; }
  [[nodiscard]] const std::string& errorReason() const { return errorReason_; }

  /// Bytes buffered but not yet consumed (tests).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  [[nodiscard]] Status failWith(int code, std::string reason);
  [[nodiscard]] Status parseHead(std::string_view head, HttpRequest& out,
                                 std::size_t& contentLength);

  HttpLimits limits_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  int errorCode_ = 0;
  std::string errorReason_;
};

/// Reason phrase for the handful of codes the daemon emits.
[[nodiscard]] std::string_view statusText(int code);

/// Render a complete response with Content-Length framing. No Date header:
/// responses stay byte-deterministic for the golden differential tests.
[[nodiscard]] std::string renderResponse(
    int code, std::string_view body, bool keepAlive,
    std::string_view contentType = "application/json");

/// The daemon's error body, {"error":<reason>} on one line plus a newline:
/// the service's error responses and the server's own (parse errors,
/// overload) share it.
[[nodiscard]] std::string errorBody(const std::string& reason);

/// errorBody(reason) + renderResponse.
[[nodiscard]] std::string renderErrorResponse(int code,
                                              const std::string& reason,
                                              bool keepAlive);

}  // namespace mphls::serve
