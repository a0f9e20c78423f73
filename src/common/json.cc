#include "common/json.hh"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ctcp::json {

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

double
Value::asNumber() const
{
    return kind == Kind::Number ? std::strtod(number.c_str(), nullptr)
                                : 0.0;
}

double
Value::num(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::string
Value::str(const std::string &key) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->string : std::string();
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value out = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing data after the document");
        return out;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 text_[pos_] + "'");
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    Value
    parseValue()
    {
        const char c = peek();
        Value out;
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth));
            ++depth_;
            out = c == '{' ? parseObject() : parseArray();
            --depth_;
            return out;
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            out.string = parseString();
            return out;
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber();
        if (consumeWord("true")) {
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return out;
        }
        if (consumeWord("false")) {
            out.kind = Value::Kind::Bool;
            return out;
        }
        if (consumeWord("null"))
            return out;
        fail(std::string("unexpected character '") + c + "'");
    }

    Value
    parseObject()
    {
        expect('{');
        Value out;
        out.kind = Value::Kind::Object;
        if (consumeIf('}'))
            return out;
        while (true) {
            if (peek() != '"')
                fail("expected a string key");
            std::string key = parseString();
            expect(':');
            out.object.emplace_back(std::move(key), parseValue());
            if (consumeIf(','))
                continue;
            expect('}');
            return out;
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Value out;
        out.kind = Value::Kind::Array;
        if (consumeIf(']'))
            return out;
        while (true) {
            out.array.push_back(parseValue());
            if (consumeIf(','))
                continue;
            expect(']');
            return out;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("invalid \\u escape digit");
                }
                // Our writers only emit \u00xx (control characters).
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                fail(std::string("invalid escape '\\") + esc + "'");
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            fail("malformed number");
        Value out;
        out.kind = Value::Kind::Number;
        out.number = text_.substr(start, pos_ - start);
        return out;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace ctcp::json
