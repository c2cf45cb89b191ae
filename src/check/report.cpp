#include "check/report.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

namespace mphls {

std::string_view checkSeverityName(CheckSeverity s) {
  switch (s) {
    case CheckSeverity::Note: return "note";
    case CheckSeverity::Warning: return "warning";
    case CheckSeverity::Error: return "error";
  }
  return "?";
}

std::string CheckDiag::str() const {
  std::ostringstream oss;
  oss << checkSeverityName(severity) << " [" << id << "]";
  if (!where.empty()) oss << " " << where;
  oss << ": " << message;
  return oss.str();
}

std::size_t CheckReport::errorCount() const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.severity == CheckSeverity::Error) ++n;
  return n;
}

std::size_t CheckReport::warningCount() const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.severity == CheckSeverity::Warning) ++n;
  return n;
}

bool CheckReport::has(std::string_view id) const {
  for (const auto& d : diags_)
    if (d.id == id) return true;
  return false;
}

std::size_t CheckReport::countOf(std::string_view id) const {
  std::size_t n = 0;
  for (const auto& d : diags_)
    if (d.id == id) ++n;
  return n;
}

const CheckDiag* CheckReport::firstErrorDiag() const {
  for (const auto& d : diags_)
    if (d.severity == CheckSeverity::Error) return &d;
  return nullptr;
}

std::string CheckReport::firstError() const {
  const CheckDiag* d = firstErrorDiag();
  return d ? d->str() : std::string();
}

std::string_view CheckReport::firstErrorId() const {
  const CheckDiag* d = firstErrorDiag();
  return d ? std::string_view(d->id) : std::string_view();
}

namespace {

std::string failureText(const std::string& stage, const CheckReport& rep) {
  std::ostringstream oss;
  oss << stage << " check failed (" << rep.errorCount()
      << " finding(s)): " << rep.firstError();
  return oss.str();
}

}  // namespace

CheckFailure::CheckFailure(const std::string& stage, CheckReport report)
    : InternalError(failureText(stage, report)), report_(std::move(report)) {}

std::vector<CheckDiag> CheckReport::sorted() const {
  std::vector<CheckDiag> out = diags_;
  std::stable_sort(out.begin(), out.end(),
                   [](const CheckDiag& a, const CheckDiag& b) {
                     // Errors first, then warnings, then notes.
                     if (a.severity != b.severity)
                       return (int)a.severity > (int)b.severity;
                     return std::tie(a.id, a.where, a.message) <
                            std::tie(b.id, b.where, b.message);
                   });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string CheckReport::render() const {
  std::ostringstream oss;
  for (const auto& d : sorted()) oss << d.str() << "\n";
  oss << errorCount() << " error(s), " << warningCount() << " warning(s)\n";
  return oss.str();
}

void CheckReport::addJson(json::Node& obj) const {
  json::Node& diags = obj["diagnostics"] = json::Node::array();
  for (const auto& d : sorted()) {
    json::Node& o = diags.push(json::Node::object());
    o["severity"] = std::string(checkSeverityName(d.severity));
    o["code"] = d.id;
    o["where"] = d.where;
    o["message"] = d.message;
  }
  obj["errors"] = errorCount();
  obj["warnings"] = warningCount();
  obj["clean"] = clean();
}

std::string CheckReport::renderJson() const {
  json::Node obj = json::Node::object();
  addJson(obj);
  return obj.dumpLine();
}

}  // namespace mphls
