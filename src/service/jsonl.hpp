// Minimal flat JSON support for the JSON-lines front-end.
//
// The serve protocol only ever exchanges FLAT objects -- string, number and
// boolean values, no nesting, no arrays -- so instead of pulling in a JSON
// dependency we parse exactly that subset (strictly: unknown escapes,
// nesting or trailing garbage raise std::invalid_argument) and emit
// well-formed JSON through a tiny writer.  Numbers and booleans parse to
// their literal text; callers convert as needed.
//
// It is also the protocol module every transport shares: the request
// reader a shard's RequestHandler and the cluster Router both run on each
// input line, the error record both answer a bad line with, and the field
// and op vocabulary both classify requests by.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "service/status.hpp"

namespace wfc::svc {

/// One parsed flat JSON object: its members in key order, one per key (a
/// key given twice keeps its last value), keys and values unescaped.  The
/// member table and the text it views share one heap block, so filling it
/// costs one allocation.  The views stay valid while this object lives,
/// and across a move.
class Fields {
 public:
  struct Member {
    std::string_view first;   // key
    std::string_view second;  // value
  };
  using const_iterator = const Member*;

  Fields() = default;
  Fields(const Fields&) = delete;
  Fields& operator=(const Fields&) = delete;
  Fields(Fields&& other) noexcept;
  Fields& operator=(Fields&& other) noexcept;
  ~Fields() = default;

  [[nodiscard]] const_iterator begin() const { return members(); }
  [[nodiscard]] const_iterator end() const { return members() + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The member named `key`, else end().
  [[nodiscard]] const_iterator find(std::string_view key) const;
  [[nodiscard]] std::size_t count(std::string_view key) const {
    return find(key) == end() ? 0 : 1;
  }
  /// The value of `key`; throws std::out_of_range without one.
  [[nodiscard]] std::string_view at(std::string_view key) const;
  /// The value of `key`, or `fallback` without one.
  [[nodiscard]] std::string_view get(std::string_view key,
                                     std::string_view fallback = {}) const;

 private:
  friend Fields parse_flat_json(std::string_view line);
  [[nodiscard]] const Member* members() const;

  std::unique_ptr<std::byte[]> block_;  // size_ members, then their text
  std::size_t size_ = 0;
};

/// Parses one flat JSON object, e.g. {"task":"consensus","procs":2}.
/// Values are returned as raw text (strings unescaped, numbers/booleans
/// verbatim).  Throws std::invalid_argument on anything else.
Fields parse_flat_json(std::string_view line);

/// Walks one flat JSON object member by member with the grammar, checks
/// and error messages of parse_flat_json (which is built on it), copying
/// nothing: each key and value is a view of its raw text, strings without
/// their quotes and with their escapes in place.  A key or string value
/// without a backslash reads as itself; unescape_json resolves the rest.
class FlatJsonScanner {
 public:
  struct Member {
    std::string_view key;
    std::string_view value;
    bool quoted = false;  // the value was a JSON string
  };

  explicit FlatJsonScanner(std::string_view line) : line_(line) {}

  /// Reads the next member into *member; false once the object has closed
  /// (and nothing but whitespace follows it).  Throws
  /// std::invalid_argument where parse_flat_json does.
  bool next(Member* member);

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
  bool opened_ = false;
  bool closed_ = false;
};

/// The text a raw key or string value from FlatJsonScanner stands for.
std::string unescape_json(std::string_view raw);

/// One input line as read_request saw it.
struct RequestLine {
  enum class Kind {
    kSkip,     // blank or '#' comment: no response line
    kError,    // `error` is the response (over the size cap, malformed JSON)
    kRequest,  // `fields` holds the parsed object, `op` its "op" field
  };
  Kind kind = Kind::kSkip;
  std::string_view text;  // the caller's line without its CRLF '\r'
  std::string error;
  Fields fields;
  std::string op;  // "" when the line names no op
};

/// The request reader every transport runs first: strips a trailing '\r'
/// (CRLF framing), answers a line longer than `max_line_bytes` (0 = no
/// cap) without parsing -- or keeping -- it, skips blank and '#' lines, and
/// parses the rest with parse_flat_json.  Never throws.
RequestLine read_request(std::string_view line, int line_no,
                         std::size_t max_line_bytes);

/// The rule every numeric query option ("max_level", "budget",
/// "timeout_ms") follows: the whole of `text` is a decimal integer in
/// [0, max].  nullopt for anything else -- empty text, a sign, a fraction,
/// trailing text, a value over `max`.
[[nodiscard]] std::optional<std::uint64_t> whole_number(std::string_view text,
                                                        std::uint64_t max);

/// The bound on "max_level" and "timeout_ms": both become ints.  A shard
/// answers a larger value invalid_argument, and the router sets no
/// deadline for one.
inline constexpr std::uint64_t kMaxIntOption =
    static_cast<std::uint64_t>(std::numeric_limits<int>::max());

/// The error record for a line that produced no query result: the request
/// "id" when known, the status token, the offending 1-based line number,
/// the message and, when nonzero, the client's backoff hint.
std::string error_record(std::string_view id, int line_no, Status status,
                         std::string_view message,
                         std::uint64_t retry_after_ms = 0);

/// Ops answered by a transport's control path -- after the connection's
/// in-flight queries drain -- instead of being submitted as queries.
bool is_control_op(std::string_view op);

/// Request fields that never identify a task: they select how a query
/// runs, not what it asks.  Task interning and the router's routing key
/// both skip them (each with its own rule for "model").
inline constexpr std::array<std::string_view, 5> kNonTaskFields = {
    "id", "op", "max_level", "budget", "timeout_ms"};

[[nodiscard]] inline bool is_non_task_field(std::string_view key) {
  return std::find(kNonTaskFields.begin(), kNonTaskFields.end(), key) !=
         kNonTaskFields.end();
}

/// Removes a top-level `key` field from a flat JSON line (no-op without
/// one); the key's text inside a value is left alone.
std::string strip_field(std::string_view line, std::string_view key);

/// Inserts "key":"value" (value verbatim -- the caller escapes if needed)
/// as the first field of a flat JSON line that has no `key` field.
std::string with_field(const std::string& stripped, std::string_view key,
                       std::string_view value);

/// with_field(stripped, "id", id): the load generator's id stamp.
inline std::string with_id(const std::string& stripped,
                           std::string_view id) {
  return with_field(stripped, "id", id);
}

/// with_id(strip_field(line, "id"), id), built in one pass: the router's id
/// splice, both ways.  `line` is a flat object that starts with '{'.
std::string replace_id(std::string_view line, std::string_view id);

/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// Builds one flat JSON object field by field, appending into one buffer:
/// plain runs of a string are copied in bulk and integers written with
/// std::to_chars.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& field(std::string_view key, std::string_view value);  // string
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));  // keep literals off bool
  }
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonWriter& field(std::string_view key, bool value);

  /// The finished object, e.g. {"status":"SOLVABLE","level":1}.
  [[nodiscard]] std::string str() const&;
  /// The same, handing over the buffer (the writer is spent).
  [[nodiscard]] std::string str() &&;

 private:
  /// Appends the separator and "key": of the next field.
  void key(std::string_view key);
  std::string out_;  // '{' and the fields so far
};

}  // namespace wfc::svc
