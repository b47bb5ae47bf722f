#ifndef ARIADNE_PQL_PARSER_H_
#define ARIADNE_PQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "pql/ast.h"

namespace ariadne {

/// Parses PQL text into a Program.
///
/// Grammar (paper §4.2 surface syntax):
///   program    := rule+
///   rule       := head ("<-" | ":-") literal ("," literal)* "."
///   head       := ident "(" head_term ("," head_term)* ")"
///   head_term  := AGGR "(" var ")" | term
///   literal    := ["!"|"not"] ident "(" term ("," term)* ")"
///               | term cmp_op term
///   term       := additive over primary; primary := var | number |
///                 string | $param | "(" term ")"
///
/// Lower-case identifiers are variables inside argument positions;
/// numbers/strings are constants; `$name` is a parameter bound via
/// Program::BindParameters. AGGR is one of COUNT/SUM/MIN/MAX/AVG
/// (case-insensitive).
Result<Program> ParseProgram(const std::string& text);

/// Recovering variant: syntax errors are reported to `sink` (with source
/// spans) and parsing resumes at the next '.', so a single pass surfaces
/// every malformed rule. Returns the rules that did parse (possibly
/// none); callers should check `sink.has_errors()`.
Program ParseProgram(const std::string& text, DiagnosticSink& sink);

/// Convenience: parse a single rule.
Result<Rule> ParseRule(const std::string& text);

/// Parses a parameter value given on a command line (`name=value`): an
/// integer when the whole text is one that fits int64, else a double when
/// the whole text is one, else the text itself as a string. So an
/// out-of-range integer such as 9223372036854775808 binds the double it
/// denotes.
Value ParseParamValue(const std::string& text);

}  // namespace ariadne

#endif  // ARIADNE_PQL_PARSER_H_
