#include "service/jsonl.hpp"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace wfc::svc {

namespace {

[[noreturn]] void bad(std::string_view line, const char* why) {
  throw std::invalid_argument("parse_flat_json: " + std::string(why) +
                              " in: " + std::string(line));
}

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

/// The raw text of the string at line[i] == '"' (quotes excluded, escapes
/// kept but checked); leaves i past the closing quote.  Runs of plain text
/// are skipped with memchr: long values cost a copy, not a loop per byte.
std::string_view scan_string(std::string_view line, std::size_t& i) {
  const char* const data = line.data();
  const std::size_t start = ++i;
  std::size_t quote = line.find('"', i);
  while (true) {
    // The first escape before the closing quote candidate, if any.
    const std::size_t limit = quote == std::string_view::npos ? line.size()
                                                              : quote;
    const void* esc = std::memchr(data + i, '\\', limit - i);
    if (esc == nullptr) {
      if (quote == std::string_view::npos) bad(line, "unterminated string");
      i = quote + 1;
      return line.substr(start, quote - start);
    }
    i = static_cast<std::size_t>(static_cast<const char*>(esc) - data) + 1;
    if (i >= line.size()) bad(line, "dangling escape");
    switch (line[i++]) {
      case '"': case '\\': case '/': case 'n': case 't': case 'r': break;
      default: bad(line, "unsupported escape");
    }
    if (quote != std::string_view::npos && quote < i) {
      quote = line.find('"', i);  // that quote was escaped
    }
  }
}

std::string_view scan_scalar(std::string_view line, std::size_t& i) {
  // Number / true / false / null, ended by ',' '}' or whitespace.
  const std::size_t start = i;
  while (i < line.size() && line[i] != ',' && line[i] != '}' &&
         !std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  const std::string_view tok = line.substr(start, i - start);
  if (tok.empty()) bad(line, "empty value");
  if (tok == "true" || tok == "false" || tok == "null") return tok;
  // Validate as a JSON number (integers and simple decimals suffice here).
  std::size_t p = 0;
  if (tok[p] == '-') ++p;
  bool digits = false;
  while (p < tok.size() &&
         std::isdigit(static_cast<unsigned char>(tok[p]))) {
    ++p;
    digits = true;
  }
  if (p < tok.size() && tok[p] == '.') {
    ++p;
    while (p < tok.size() &&
           std::isdigit(static_cast<unsigned char>(tok[p]))) {
      ++p;
      digits = true;
    }
  }
  if (!digits || p != tok.size()) bad(line, "malformed value");
  return tok;
}

/// The bytes [from, to) strip_field removes for a top-level `key` member:
/// the member and exactly one separating comma.  from == npos: no such
/// member.
struct Cut {
  std::size_t from = std::string_view::npos;
  std::size_t to = std::string_view::npos;
};

Cut find_member(std::string_view line, std::string_view key) {
  std::string needle;  // short keys stay in the small-string buffer
  needle.reserve(key.size() + 2);
  needle += '"';
  needle += key;
  needle += '"';
  const auto space = [&line](std::size_t k) {
    return std::isspace(static_cast<unsigned char>(line[k])) != 0;
  };
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string_view::npos) {
    // A top-level key is preceded (modulo whitespace) by '{' or ','.
    std::size_t before = pos;
    while (before > 0 && space(before - 1)) --before;
    const bool key_position =
        before > 0 && (line[before - 1] == '{' || line[before - 1] == ',');
    std::size_t after = pos + needle.size();
    while (after < line.size() && space(after)) ++after;
    if (!key_position || after >= line.size() || line[after] != ':') {
      pos += needle.size();  // matched inside a value; keep looking
      continue;
    }
    ++after;  // past ':'
    while (after < line.size() && space(after)) ++after;
    if (after < line.size() && line[after] == '"') {
      ++after;
      while (after < line.size() && line[after] != '"') {
        after += line[after] == '\\' ? 2 : 1;
      }
      if (after < line.size()) ++after;  // past the closing quote
    } else {
      while (after < line.size() && line[after] != ',' &&
             line[after] != '}') {
        ++after;
      }
    }
    // Absorb exactly one separating comma (trailing preferred).
    Cut cut{pos, after};
    while (cut.to < line.size() && space(cut.to)) ++cut.to;
    if (cut.to < line.size() && line[cut.to] == ',') {
      ++cut.to;
    } else if (line[before - 1] == ',') {
      cut.from = before - 1;
    }
    return cut;
  }
  return {};
}

}  // namespace

bool FlatJsonScanner::next(Member* member) {
  const std::string_view line = line_;
  std::size_t& i = pos_;
  if (closed_) return false;
  if (!opened_) {
    skip_ws(line, i);
    if (i >= line.size() || line[i] != '{') bad(line, "expected '{'");
    ++i;
    opened_ = true;
    skip_ws(line, i);
    if (i < line.size() && line[i] == '}') {
      ++i;
      skip_ws(line, i);
      if (i != line.size()) bad(line, "trailing garbage");
      closed_ = true;
      return false;
    }
  }
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '"') bad(line, "expected key");
  member->key = scan_string(line, i);
  skip_ws(line, i);
  if (i >= line.size() || line[i] != ':') bad(line, "expected ':'");
  ++i;
  skip_ws(line, i);
  if (i >= line.size()) bad(line, "missing value");
  member->quoted = line[i] == '"';
  member->value =
      member->quoted ? scan_string(line, i) : scan_scalar(line, i);
  skip_ws(line, i);
  if (i >= line.size()) bad(line, "unterminated object");
  if (line[i] == ',') {
    ++i;
    return true;
  }
  if (line[i] != '}') bad(line, "expected ',' or '}'");
  ++i;
  skip_ws(line, i);
  if (i != line.size()) bad(line, "trailing garbage");
  closed_ = true;
  return true;
}

std::string unescape_json(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  std::size_t from = 0;
  for (std::size_t esc; (esc = raw.find('\\', from)) != std::string_view::npos &&
                        esc + 1 < raw.size();
       from = esc + 2) {
    out.append(raw.substr(from, esc - from));
    switch (raw[esc + 1]) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      default: out.push_back(raw[esc + 1]);  // '"', '\\' or '/'
    }
  }
  out.append(raw.substr(from));
  return out;
}

Fields parse_flat_json(std::string_view line) {
  Fields out;
  FlatJsonScanner scan(line);
  FlatJsonScanner::Member m;
  while (scan.next(&m)) {
    out[unescape_json(m.key)] =
        m.quoted ? unescape_json(m.value) : std::string(m.value);
  }
  return out;
}

RequestLine read_request(std::string_view line, int line_no,
                         std::size_t max_line_bytes) {
  RequestLine out;
  // CRLF framing: a trailing '\r' belongs to the wire, not the request.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  out.text = line;
  if (max_line_bytes != 0 && line.size() > max_line_bytes) {
    // The id is unknowable without parsing, so the record carries only the
    // line number.
    out.kind = RequestLine::Kind::kError;
    out.error = error_record("", line_no, Status::kInvalidArgument,
                             "request line exceeds " +
                                 std::to_string(max_line_bytes) + " bytes");
    return out;
  }
  const std::size_t first = line.find_first_not_of(" \t");
  if (first == std::string_view::npos || line[first] == '#') return out;
  try {
    out.fields = parse_flat_json(line);
  } catch (const std::exception& e) {
    out.kind = RequestLine::Kind::kError;
    out.error = error_record("", line_no, Status::kInvalidArgument, e.what());
    return out;
  }
  out.kind = RequestLine::Kind::kRequest;
  if (const auto it = out.fields.find("op"); it != out.fields.end()) {
    out.op = it->second;
  }
  return out;
}

std::string error_record(std::string_view id, int line_no, Status status,
                         std::string_view message,
                         std::uint64_t retry_after_ms) {
  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("status", to_json_token(status))
      .field("line", line_no)
      .field("error", message);
  if (retry_after_ms > 0) w.field("retry_after_ms", retry_after_ms);
  return w.str();
}

bool is_control_op(std::string_view op) {
  return op == "stats" || op == "metrics" || op == "trace" || op == "info" ||
         op == "store";
}

std::string strip_field(std::string_view line, std::string_view key) {
  const Cut cut = find_member(line, key);
  if (cut.from == std::string_view::npos) return std::string(line);
  std::string out;
  out.reserve(line.size() - (cut.to - cut.from));
  out.append(line.substr(0, cut.from));
  out.append(line.substr(cut.to));
  return out;
}

std::string with_field(const std::string& stripped, std::string_view key,
                       std::string_view value) {
  // stripped is a validated flat object, so it starts with '{'.
  std::size_t body = 1;
  while (body < stripped.size() &&
         std::isspace(static_cast<unsigned char>(stripped[body]))) {
    ++body;
  }
  const bool empty_object = body < stripped.size() && stripped[body] == '}';
  std::string out;
  out.reserve(stripped.size() + key.size() + value.size() + 8);
  out += "{\"";
  out += key;
  out += "\":\"";
  out += value;
  out += '"';
  if (!empty_object) out += ',';
  out.append(stripped.data() + 1, stripped.size() - 1);
  return out;
}

std::string replace_id(std::string_view line, std::string_view id) {
  // The stripped line is head + tail; with_field's rules apply to it.
  const Cut cut = find_member(line, "id");
  const bool found = cut.from != std::string_view::npos;
  const std::string_view head = found ? line.substr(0, cut.from) : line;
  const std::string_view tail =
      found ? line.substr(cut.to) : std::string_view();
  const auto at = [&head, &tail](std::size_t k) {
    return k < head.size() ? head[k] : tail[k - head.size()];
  };
  const std::size_t size = head.size() + tail.size();
  std::size_t body = 1;
  while (body < size && std::isspace(static_cast<unsigned char>(at(body)))) {
    ++body;
  }
  const bool empty_object = body < size && at(body) == '}';
  std::string out;
  out.reserve(size + id.size() + 8);
  out += "{\"id\":\"";
  out += id;
  out += '"';
  if (!empty_object) out += ',';
  out.append(head.substr(1));
  out.append(tail);
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

JsonWriter& JsonWriter::raw(std::string_view key, std::string_view rendered) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"";
  body_ += json_escape(key);
  body_ += "\":";
  body_ += rendered;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  return raw(key, "\"" + json_escape(value) + "\"");
}

JsonWriter& JsonWriter::field(std::string_view key, std::int64_t value) {
  return raw(key, std::to_string(value));
}

JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

}  // namespace wfc::svc
