/**
 * @file
 * The repository's one JSON reader and string escaper.
 *
 * Parses the JSON this repository writes (campaign reports, journal
 * records, single-run metrics, daemon state and responses) into an
 * ordered DOM. Object member order is preserved, so anything rendered
 * from a parsed document is as deterministic as the document itself.
 * This is a reader for our own well-formed output, not a general
 * validator: numbers are kept as raw text and converted on demand, and
 * \u escapes outside Latin-1 are not decoded (the writers never emit
 * them). Malformed input, including a torn journal line or nesting
 * deeper than kMaxDepth, throws; it never crashes the reader.
 */

#ifndef CTCPSIM_COMMON_JSON_HH
#define CTCPSIM_COMMON_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ctcp::json {

/** One parsed JSON value (recursive). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Raw numeric text (exact round-trip; convert with asNumber()). */
    std::string number;
    std::string string;
    std::vector<Value> array;
    /** Members in document order. */
    std::vector<std::pair<std::string, Value>> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; null when absent or this is not an object. */
    const Value *find(std::string_view key) const;

    /** Numeric conversion (0.0 unless this is a Number). */
    double asNumber() const;

    /** Member as a number, or @p fallback when absent/non-numeric. */
    double num(const std::string &key, double fallback = 0.0) const;

    /** Member as a string, or "" when absent/non-string. */
    std::string str(const std::string &key) const;
};

/** Deepest array/object nesting parse() accepts. */
inline constexpr unsigned kMaxDepth = 256;

/**
 * Parse one complete JSON document.
 * @throws std::runtime_error with position info on malformed input
 */
Value parse(const std::string &text);

/**
 * The body of a JSON string literal for @p text (no surrounding
 * quotes): quotes, backslashes and control characters escaped.
 */
std::string escape(const std::string &text);

} // namespace ctcp::json

#endif // CTCPSIM_COMMON_JSON_HH
