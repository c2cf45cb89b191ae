#include "lang/frontend.h"

#include "lang/lexer.h"
#include "lang/lower.h"
#include "lang/parser.h"

namespace mphls {

std::optional<Function> compileBdl(const std::string& source,
                                   DiagEngine& diags,
                                   const std::string& top) {
  Lexer lexer(source, diags);
  auto tokens = lexer.tokenize();
  if (!diags.ok()) return std::nullopt;

  Parser parser(std::move(tokens), diags);
  ast::Design design = parser.parseDesign();
  if (!diags.ok()) return std::nullopt;
  if (design.procs.empty()) {
    diags.error({}, "no procedures in design");
    return std::nullopt;
  }

  std::string topName = top.empty() ? design.procs.back().name : top;
  return lowerDesign(design, topName, diags);
}

Function compileBdlOrThrow(const std::string& source, const std::string& top) {
  DiagEngine diags;
  auto fn = compileBdl(source, diags, top);
  if (!fn) throw CompileError("BDL compilation failed:\n" + diags.summary());
  return std::move(*fn);
}

}  // namespace mphls
