#include "io/ntriples.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/strings.h"
#include "graph/entity_graph_builder.h"

namespace egp {
namespace {

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Splits `<a> <b> <c> .` into three tokens; angle brackets and the final
/// dot are optional, a `#` after the terminator comments out the rest of
/// the line. Bracketed tokens may contain spaces; quoted tokens support
/// the W3C N-Triples escape set. On error, `*error_at` is the 0-based
/// offset of the offending byte within `line`.
Status ParseTriple(std::string_view line, std::string* s, std::string* p,
                   std::string* o, size_t* error_at) {
  auto fail = [error_at](size_t at, const char* what) {
    *error_at = at;
    return Status::Corruption(what);
  };
  std::vector<std::string> tokens;
  size_t i = 0;
  const size_t n = line.size();
  while (i < n && tokens.size() < 3) {
    while (i < n && IsSpace(line[i])) ++i;
    if (i >= n) break;
    if (line[i] == '<') {
      const size_t close = line.find('>', i + 1);
      if (close == std::string_view::npos) {
        return fail(i, "unterminated '<' token");
      }
      tokens.emplace_back(line.substr(i + 1, close - i - 1));
      i = close + 1;
    } else if (line[i] == '"') {
      const size_t open = i;
      ++i;
      std::string token;
      bool closed = false;
      while (i < n) {
        const char c = line[i];
        if (c == '"') {
          closed = true;
          ++i;
          break;
        }
        if (c != '\\') {
          token.push_back(c);
          ++i;
          continue;
        }
        if (i + 1 >= n) return fail(i, "dangling '\\' in literal");
        const char escape = line[i + 1];
        switch (escape) {
          case 't': token.push_back('\t'); i += 2; break;
          case 'b': token.push_back('\b'); i += 2; break;
          case 'n': token.push_back('\n'); i += 2; break;
          case 'r': token.push_back('\r'); i += 2; break;
          case 'f': token.push_back('\f'); i += 2; break;
          case '"': token.push_back('"'); i += 2; break;
          case '\'': token.push_back('\''); i += 2; break;
          case '\\': token.push_back('\\'); i += 2; break;
          case 'u':
          case 'U': {
            const size_t digits = escape == 'u' ? 4 : 8;
            if (i + 2 + digits > n) {
              return fail(i, "truncated \\u escape in literal");
            }
            uint32_t cp = 0;
            for (size_t d = 0; d < digits; ++d) {
              const int value = HexDigitValue(line[i + 2 + d]);
              if (value < 0) {
                return fail(i + 2 + d, "bad hex digit in \\u escape");
              }
              cp = (cp << 4) | static_cast<uint32_t>(value);
            }
            if (!AppendUtf8(&token, cp)) {
              return fail(i, "\\u escape is not a Unicode scalar value");
            }
            i += 2 + digits;
            break;
          }
          default:
            return fail(i, "invalid escape sequence in literal");
        }
      }
      if (!closed) return fail(open, "unterminated '\"' token");
      tokens.push_back(std::move(token));
    } else {
      size_t end = i;
      while (end < n && !IsSpace(line[end])) ++end;
      std::string_view token = line.substr(i, end - i);
      if (token == ".") break;  // bare statement terminator, not a token
      tokens.emplace_back(token);
      i = end;
    }
  }
  // Anything after the third token must be the statement terminator,
  // optionally followed by a comment to end of line.
  while (i < n && (IsSpace(line[i]) || line[i] == '.')) ++i;
  if (i < n && line[i] == '#') i = n;
  if (tokens.size() != 3 || i != n) {
    return fail(i, "expected '<s> <p> <o> .'");
  }
  *s = std::move(tokens[0]);
  *p = std::move(tokens[1]);
  *o = std::move(tokens[2]);
  return Status::OK();
}

bool IsTypePredicate(std::string_view p) {
  return p == "a" || p == "rdf:type" ||
         p == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
}

/// Whether `name` survives the <bracketed> form byte for byte.
bool BracketSafe(std::string_view name) {
  for (const char c : name) {
    if (c == '>' || c == '"' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20) {
      return false;
    }
  }
  return true;
}

void AppendToken(std::string* out, std::string_view name) {
  if (BracketSafe(name)) {
    *out += '<';
    *out += name;
    *out += '>';
    return;
  }
  *out += '"';
  for (const char c : name) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04X",
                        static_cast<unsigned>(c));
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

Result<EntityGraph> ReadNTriples(std::istream& in, NTriplesStats* stats) {
  EntityGraphBuilder builder;
  NTriplesStats local;
  struct PendingEdge {
    std::string s, p, o;
  };
  std::vector<PendingEdge> pending;

  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view view = Trim(line);
    if (view.empty() || view[0] == '#') continue;
    std::string s, p, o;
    size_t error_at = 0;
    Status status = ParseTriple(view, &s, &p, &o, &error_at);
    if (!status.ok()) {
      // 1-based column in the original (untrimmed) line.
      const size_t column =
          static_cast<size_t>(view.data() - line.data()) + error_at + 1;
      return Status::Corruption(StrFormat("line %zu, col %zu: %s",
                                          line_number, column,
                                          status.message().c_str()));
    }
    ++local.triples;
    if (IsTypePredicate(p)) {
      ++local.type_assertions;
      builder.AddTypedEntity(s, o);
    } else {
      // Relationship triples are resolved after all type assertions, since
      // the inferred relationship type needs endpoint types.
      pending.push_back(PendingEdge{std::move(s), std::move(p), std::move(o)});
    }
  }

  for (PendingEdge& edge : pending) {
    const EntityId src = builder.AddEntity(edge.s);
    const EntityId dst = builder.AddEntity(edge.o);
    // Relationship type inferred from primary (first-asserted) types.
    const std::vector<TypeId>& src_types = builder.TypesOf(src);
    const std::vector<TypeId>& dst_types = builder.TypesOf(dst);
    if (src_types.empty() || dst_types.empty()) {
      ++local.skipped_untyped;
      continue;
    }
    const RelTypeId rel =
        builder.AddRelationshipType(edge.p, src_types[0], dst_types[0]);
    EGP_RETURN_IF_ERROR(builder.AddEdge(src, rel, dst));
    ++local.relationships;
  }

  if (stats != nullptr) *stats = local;
  return builder.Build();
}

Result<EntityGraph> ReadNTriplesFile(const std::string& path,
                                     NTriplesStats* stats) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadNTriples(in, stats);
}

Status WriteNTriples(const EntityGraph& graph, std::ostream& out) {
  std::string buffer;
  buffer.reserve(1 << 16);
  const auto flush = [&out, &buffer]() {
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    buffer.clear();
  };
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    for (const TypeId t : graph.TypesOf(e)) {
      AppendToken(&buffer, graph.EntityName(e));
      buffer += " a ";
      AppendToken(&buffer, graph.TypeName(t));
      buffer += " .\n";
      if (buffer.size() > (1 << 15)) flush();
    }
  }
  // Edges in (relationship type, source, destination) order. A reader
  // declares each relationship type at its first edge, so this order
  // gives a re-read the same relationship type ids.
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    for (EntityId src = 0; src < graph.num_entities(); ++src) {
      for (const FrozenGraph::Arc& arc :
           graph.adjacency().RelArcs(src, r, Direction::kOutgoing)) {
        AppendToken(&buffer, graph.EntityName(src));
        buffer += ' ';
        AppendToken(&buffer, graph.RelSurfaceName(r));
        buffer += ' ';
        AppendToken(&buffer, graph.EntityName(arc.neighbor));
        buffer += " .\n";
        if (buffer.size() > (1 << 15)) flush();
      }
    }
  }
  flush();
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteNTriplesFile(const EntityGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteNTriples(graph, out);
}

}  // namespace egp
