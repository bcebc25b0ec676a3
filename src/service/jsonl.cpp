#include "service/jsonl.hpp"

#include <cctype>
#include <cstdio>
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

std::string parse_string(std::string_view line, std::size_t& i) {
  // line[i] == '"' on entry.
  ++i;
  std::string out;
  while (i < line.size() && line[i] != '"') {
    char c = line[i++];
    if (c == '\\') {
      if (i >= line.size()) bad(line, "dangling escape");
      const char esc = line[i++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        default: bad(line, "unsupported escape");
      }
    } else {
      out.push_back(c);
    }
  }
  if (i >= line.size()) bad(line, "unterminated string");
  ++i;  // closing quote
  return out;
}

std::string parse_scalar(std::string_view line, std::size_t& i) {
  // Number / true / false / null, ended by ',' '}' or whitespace.
  const std::size_t start = i;
  while (i < line.size() && line[i] != ',' && line[i] != '}' &&
         !std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  std::string tok(line.substr(start, i - start));
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

}  // namespace

Fields parse_flat_json(std::string_view line) {
  Fields out;
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') bad(line, "expected '{'");
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws(line, i);
      if (i >= line.size() || line[i] != '"') bad(line, "expected key");
      std::string key = parse_string(line, i);
      skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') bad(line, "expected ':'");
      ++i;
      skip_ws(line, i);
      if (i >= line.size()) bad(line, "missing value");
      std::string value = line[i] == '"' ? parse_string(line, i)
                                         : parse_scalar(line, i);
      out[std::move(key)] = std::move(value);
      skip_ws(line, i);
      if (i >= line.size()) bad(line, "unterminated object");
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      bad(line, "expected ',' or '}'");
    }
  }
  skip_ws(line, i);
  if (i != line.size()) bad(line, "trailing garbage");
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

std::string strip_field(const std::string& line, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 2);
  needle += '"';
  needle += key;
  needle += '"';
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    // A top-level key is preceded (modulo whitespace) by '{' or ','.
    std::size_t before = pos;
    while (before > 0 && std::isspace(static_cast<unsigned char>(
                             line[before - 1]))) {
      --before;
    }
    const bool key_position =
        before > 0 && (line[before - 1] == '{' || line[before - 1] == ',');
    std::size_t after = pos + needle.size();
    while (after < line.size() &&
           std::isspace(static_cast<unsigned char>(line[after]))) {
      ++after;
    }
    if (!key_position || after >= line.size() || line[after] != ':') {
      pos += needle.size();  // matched inside a value; keep looking
      continue;
    }
    ++after;  // past ':'
    while (after < line.size() &&
           std::isspace(static_cast<unsigned char>(line[after]))) {
      ++after;
    }
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
    std::size_t cut_from = pos;
    while (after < line.size() &&
           std::isspace(static_cast<unsigned char>(line[after]))) {
      ++after;
    }
    if (after < line.size() && line[after] == ',') {
      ++after;
    } else if (line[before - 1] == ',') {
      cut_from = before - 1;
    }
    return line.substr(0, cut_from) + line.substr(after);
  }
  return line;
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
