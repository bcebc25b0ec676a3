#include "service/jsonl.hpp"

#include <cctype>
#include <charconv>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wfc::svc {

namespace {

[[noreturn]] void bad(std::string_view line, const char* why) {
  throw std::invalid_argument("parse_flat_json: " + std::string(why) +
                              " in: " + std::string(line));
}

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

/// Reads the \u escape whose first hex digit is raw[i], joining a
/// surrogate pair: sets *cp and returns the bytes read after the 'u' (4,
/// or 10 for a pair), or 0 for a non-hex digit or a lone surrogate.
std::size_t read_unicode(std::string_view raw, std::size_t i,
                         std::uint32_t* cp) {
  const auto hex4 = [raw](std::size_t at, std::uint32_t* v) {
    if (at > raw.size() || raw.size() - at < 4) return false;
    const char* const first = raw.data() + at;
    const auto [end, ec] = std::from_chars(first, first + 4, *v, 16);
    return ec == std::errc() && end == first + 4;
  };
  std::uint32_t hi = 0;
  if (!hex4(i, &hi) || (hi >= 0xDC00 && hi <= 0xDFFF)) return 0;
  if (hi < 0xD800 || hi > 0xDBFF) {
    *cp = hi;
    return 4;
  }
  std::uint32_t lo = 0;
  if (raw.substr(i + 4, 2) != "\\u" || !hex4(i + 6, &lo) || lo < 0xDC00 ||
      lo > 0xDFFF) {
    return 0;
  }
  *cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  return 10;
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
      case '"': case '\\': case '/': case 'b': case 'f': case 'n': case 'r':
      case 't':
        break;
      case 'u': {
        std::uint32_t cp = 0;
        const std::size_t n = read_unicode(line, i, &cp);
        if (n == 0) bad(line, "malformed \\u escape");
        i += n;
        break;
      }
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

namespace {

/// Writes `cp` as UTF-8 (1-4 bytes) at `out`; returns the end.
char* put_utf8(char* out, std::uint32_t cp) {
  const auto byte = [](std::uint32_t b) { return static_cast<char>(b); };
  if (cp < 0x80) {
    *out++ = byte(cp);
  } else if (cp < 0x800) {
    *out++ = byte(0xC0 | (cp >> 6));
    *out++ = byte(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out++ = byte(0xE0 | (cp >> 12));
    *out++ = byte(0x80 | ((cp >> 6) & 0x3F));
    *out++ = byte(0x80 | (cp & 0x3F));
  } else {
    *out++ = byte(0xF0 | (cp >> 18));
    *out++ = byte(0x80 | ((cp >> 12) & 0x3F));
    *out++ = byte(0x80 | ((cp >> 6) & 0x3F));
    *out++ = byte(0x80 | (cp & 0x3F));
  }
  return out;
}

/// Writes the text `raw` stands for at `out` (at most raw.size() bytes: a
/// \u escape is 6 bytes for at most 3, a pair 12 for 4); returns the bytes
/// written.
std::size_t unescape_to(char* out, std::string_view raw) {
  if (raw.empty()) return 0;
  char* const start = out;
  std::size_t from = 0;
  for (std::size_t esc; (esc = raw.find('\\', from)) != std::string_view::npos &&
                        esc + 1 < raw.size();
       from = esc + 2) {
    std::memcpy(out, raw.data() + from, esc - from);
    out += esc - from;
    switch (raw[esc + 1]) {
      case 'b': *out++ = '\b'; break;
      case 'f': *out++ = '\f'; break;
      case 'n': *out++ = '\n'; break;
      case 't': *out++ = '\t'; break;
      case 'r': *out++ = '\r'; break;
      case 'u': {
        std::uint32_t cp = 0;
        const std::size_t n = read_unicode(raw, esc + 2, &cp);
        if (n == 0) {
          *out++ = 'u';  // not scanned text; kept within the bound
          break;
        }
        out = put_utf8(out, cp);
        esc += n;
        break;
      }
      default: *out++ = raw[esc + 1];  // '"', '\\' or '/'
    }
  }
  std::memcpy(out, raw.data() + from, raw.size() - from);
  return static_cast<std::size_t>(out - start) + (raw.size() - from);
}

}  // namespace

std::string unescape_json(std::string_view raw) {
  std::string out(raw.size(), '\0');
  out.resize(unescape_to(out.data(), raw));
  return out;
}

// ---------------------------------------------------------------------------
// Fields.

const Fields::Member* Fields::members() const {
  if (block_ == nullptr) return nullptr;
  return std::launder(reinterpret_cast<const Member*>(block_.get()));
}

Fields::Fields(Fields&& other) noexcept
    : block_(std::move(other.block_)), size_(std::exchange(other.size_, 0)) {}

Fields& Fields::operator=(Fields&& other) noexcept {
  block_ = std::move(other.block_);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

Fields::const_iterator Fields::find(std::string_view key) const {
  const auto it = std::lower_bound(
      begin(), end(), key,
      [](const Member& m, std::string_view k) { return m.first < k; });
  return it != end() && it->first == key ? it : end();
}

std::string_view Fields::at(std::string_view key) const {
  const auto it = find(key);
  if (it == end()) {
    throw std::out_of_range("Fields::at: no field \"" + std::string(key) +
                            "\"");
  }
  return it->second;
}

std::string_view Fields::get(std::string_view key,
                             std::string_view fallback) const {
  const auto it = find(key);
  return it == end() ? fallback : it->second;
}

Fields parse_flat_json(std::string_view line) {
  using Member = Fields::Member;
  // One walk collects the raw members (views into `line`) and bounds the
  // unescaped text; short objects stay in the inline table.
  constexpr std::size_t kInline = 16;
  std::array<FlatJsonScanner::Member, kInline> inline_raw;
  std::vector<FlatJsonScanner::Member> spill;
  std::size_t n = 0;
  std::size_t text = 0;
  FlatJsonScanner scan(line);
  FlatJsonScanner::Member m;
  while (scan.next(&m)) {
    if (n == kInline) spill.assign(inline_raw.begin(), inline_raw.end());
    if (n < kInline) {
      inline_raw[n] = m;
    } else {
      spill.push_back(m);
    }
    ++n;
    text += m.key.size() + m.value.size() + 2;
  }
  Fields out;
  if (n == 0) return out;
  const FlatJsonScanner::Member* raw =
      n <= kInline ? inline_raw.data() : spill.data();

  // The one allocation: n members, then each key and value unescaped and
  // NUL-terminated.  The terminators keep every key at its own address, so
  // the address orders equal keys by position in the line.
  out.block_ = std::make_unique_for_overwrite<std::byte[]>(
      n * sizeof(Member) + text);
  auto* members = reinterpret_cast<Member*>(out.block_.get());
  char* cursor = reinterpret_cast<char*>(members + n);
  const auto put = [&cursor](std::string_view raw_text, bool escaped) {
    std::size_t size = raw_text.size();
    if (escaped) {
      size = unescape_to(cursor, raw_text);
    } else {
      std::memcpy(cursor, raw_text.data(), size);
    }
    const std::string_view view(cursor, size);
    cursor += size;
    *cursor++ = '\0';
    return view;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view key = put(raw[i].key, true);
    new (members + i) Member{key, put(raw[i].value, raw[i].quoted)};
  }
  // Key order, the later of two equal keys first; unique() then keeps it.
  std::sort(members, members + n, [](const Member& a, const Member& b) {
    return a.first < b.first ||
           (a.first == b.first && a.first.data() > b.first.data());
  });
  const Member* last =
      std::unique(members, members + n, [](const Member& a, const Member& b) {
        return a.first == b.first;
      });
  out.size_ = static_cast<std::size_t>(last - members);
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
  out.op = out.fields.get("op");
  return out;
}

std::optional<std::uint64_t> whole_number(std::string_view text,
                                          std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size() ||
      value > max) {
    return std::nullopt;
  }
  return value;
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
  return std::move(w).str();
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

namespace {

/// Appends `s` JSON-escaped: runs that need no escape go in one append.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

template <typename Int>
void append_int(std::string& out, Int value) {
  char digits[24];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
  (void)ec;  // 24 digits hold any 64-bit integer
  out.append(digits, end);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

JsonWriter::JsonWriter() {
  // One buffer sized for a typical response line.
  out_.reserve(192);
  out_ += '{';
}

void JsonWriter::key(std::string_view key) {
  if (out_.size() > 1) out_ += ',';
  out_ += '"';
  append_escaped(out_, key);
  out_ += "\":";
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  this->key(key);
  out_ += '"';
  append_escaped(out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::int64_t value) {
  this->key(key);
  append_int(out_, value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t value) {
  this->key(key);
  append_int(out_, value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  this->key(key);
  out_ += value ? "true" : "false";
  return *this;
}

std::string JsonWriter::str() const& {
  std::string out;
  out.reserve(out_.size() + 1);
  out += out_;
  out += '}';
  return out;
}

std::string JsonWriter::str() && {
  out_ += '}';
  return std::move(out_);
}

}  // namespace wfc::svc
