#include "telemetry/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/status.hpp"

namespace gpm::telemetry {

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : os_(&os), pretty_(pretty)
{
}

JsonWriter::~JsonWriter() = default;

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonWriter::number(double v)
{
    // JSON has no NaN/Inf literals; degrade rather than corrupt the
    // document.
    if (std::isnan(v))
        return "0";
    if (std::isinf(v))
        return v > 0 ? "1e308" : "-1e308";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
JsonWriter::indent()
{
    if (!pretty_)
        return;
    *os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        *os_ << "  ";
}

void
JsonWriter::beforeValue()
{
    GPM_REQUIRE(!root_done_, "JsonWriter: value after document end");
    if (stack_.empty()) {
        return;  // the root value
    }
    Level &top = stack_.back();
    if (top.array) {
        GPM_REQUIRE(!key_pending_, "JsonWriter: key inside an array");
        if (!top.first)
            *os_ << ',';
        top.first = false;
        indent();
    } else {
        GPM_REQUIRE(key_pending_,
                    "JsonWriter: object member needs key() first");
        key_pending_ = false;
    }
}

void
JsonWriter::key(std::string_view k)
{
    GPM_REQUIRE(!stack_.empty() && !stack_.back().array,
                "JsonWriter: key() outside an object");
    GPM_REQUIRE(!key_pending_, "JsonWriter: two keys in a row");
    Level &top = stack_.back();
    if (!top.first)
        *os_ << ',';
    top.first = false;
    indent();
    *os_ << '"' << escape(k) << "\": ";
    key_pending_ = true;
}

void
JsonWriter::beginObject()
{
    beforeValue();
    *os_ << '{';
    stack_.emplace_back(false, true);
}

void
JsonWriter::endObject()
{
    GPM_REQUIRE(!stack_.empty() && !stack_.back().array,
                "JsonWriter: endObject outside an object");
    GPM_REQUIRE(!key_pending_, "JsonWriter: dangling key at endObject");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        indent();
    *os_ << '}';
    if (stack_.empty())
        root_done_ = true;
}

void
JsonWriter::beginArray()
{
    beforeValue();
    *os_ << '[';
    stack_.emplace_back(true, true);
}

void
JsonWriter::endArray()
{
    GPM_REQUIRE(!stack_.empty() && stack_.back().array,
                "JsonWriter: endArray outside an array");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        indent();
    *os_ << ']';
    if (stack_.empty())
        root_done_ = true;
}

void
JsonWriter::value(std::string_view s)
{
    beforeValue();
    *os_ << '"' << escape(s) << '"';
    if (stack_.empty())
        root_done_ = true;
}

void
JsonWriter::value(bool b)
{
    beforeValue();
    *os_ << (b ? "true" : "false");
    if (stack_.empty())
        root_done_ = true;
}

void
JsonWriter::value(double v)
{
    beforeValue();
    *os_ << number(v);
    if (stack_.empty())
        root_done_ = true;
}

void
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    *os_ << v;
    if (stack_.empty())
        root_done_ = true;
}

void
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    *os_ << v;
    if (stack_.empty())
        root_done_ = true;
}

void
JsonWriter::rawValue(std::string_view raw)
{
    beforeValue();
    *os_ << raw;
    if (stack_.empty())
        root_done_ = true;
}

// ---- validation -----------------------------------------------------------

namespace {

/** Recursive-descent JSON syntax checker over a string_view. */
class Validator
{
  public:
    explicit Validator(std::string_view t) : t_(t) {}

    bool
    run(std::string *error)
    {
        ok_ = true;
        pos_ = 0;
        depth_ = 0;
        skipWs();
        parseValue();
        skipWs();
        if (ok_ && pos_ != t_.size())
            fail("trailing data");
        if (!ok_ && error)
            *error = err_;
        return ok_;
    }

  private:
    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            err_ = why + " at byte " + std::to_string(pos_);
        }
    }

    bool
    eof() const
    {
        return pos_ >= t_.size();
    }

    char
    peek() const
    {
        return eof() ? '\0' : t_[pos_];
    }

    void
    skipWs()
    {
        while (!eof() && (t_[pos_] == ' ' || t_[pos_] == '\t' ||
                          t_[pos_] == '\n' || t_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view lit)
    {
        if (t_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    void
    parseString()
    {
        if (peek() != '"')
            return fail("expected string");
        ++pos_;
        while (!eof() && t_[pos_] != '"') {
            if (t_[pos_] == '\\') {
                ++pos_;
                if (eof())
                    break;
                const char e = t_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= t_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                t_[pos_ + i])))
                            return fail("bad \\u escape");
                    }
                    pos_ += 4;
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return fail("bad escape");
                }
            } else if (static_cast<unsigned char>(t_[pos_]) < 0x20) {
                return fail("control character in string");
            }
            ++pos_;
        }
        if (eof())
            return fail("unterminated string");
        ++pos_;  // closing quote
    }

    void
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("bad number");
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("bad fraction");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("bad exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        // Leading zeros: "0" ok, "01" not.
        if (t_[start] == '0' && pos_ - start > 1 && t_[start + 1] != '.' &&
            t_[start + 1] != 'e' && t_[start + 1] != 'E')
            return fail("leading zero");
        if (t_[start] == '-' && t_[start + 1] == '0' && pos_ - start > 2 &&
            t_[start + 2] != '.' && t_[start + 2] != 'e' &&
            t_[start + 2] != 'E')
            return fail("leading zero");
    }

    void
    parseValue()
    {
        if (!ok_)
            return;
        if (++depth_ > 256) {
            fail("nesting too deep");
            --depth_;
            return;
        }
        skipWs();
        const char c = peek();
        if (c == '{') {
            ++pos_;
            skipWs();
            if (peek() == '}') {
                ++pos_;
            } else {
                while (ok_) {
                    skipWs();
                    parseString();
                    skipWs();
                    if (peek() != ':') {
                        fail("expected ':'");
                        break;
                    }
                    ++pos_;
                    parseValue();
                    skipWs();
                    if (peek() == ',') {
                        ++pos_;
                        continue;
                    }
                    if (peek() == '}') {
                        ++pos_;
                        break;
                    }
                    fail("expected ',' or '}'");
                }
            }
        } else if (c == '[') {
            ++pos_;
            skipWs();
            if (peek() == ']') {
                ++pos_;
            } else {
                while (ok_) {
                    parseValue();
                    skipWs();
                    if (peek() == ',') {
                        ++pos_;
                        continue;
                    }
                    if (peek() == ']') {
                        ++pos_;
                        break;
                    }
                    fail("expected ',' or ']'");
                }
            }
        } else if (c == '"') {
            parseString();
        } else if (c == 't') {
            if (!literal("true"))
                fail("bad literal");
        } else if (c == 'f') {
            if (!literal("false"))
                fail("bad literal");
        } else if (c == 'n') {
            if (!literal("null"))
                fail("bad literal");
        } else {
            parseNumber();
        }
        --depth_;
    }

    std::string_view t_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    bool ok_ = true;
    std::string err_;
};

} // namespace

bool
validateJson(std::string_view text, std::string *error)
{
    return Validator(text).run(error);
}

bool
validateJsonFile(const std::string &path,
                 const std::vector<std::string> &required_keys,
                 std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (!validateJson(text, error))
        return false;
    for (const std::string &k : required_keys) {
        // Top-level membership check; keys are emitted by JsonWriter,
        // so the quoted-and-colon form is canonical.
        std::string quoted = "\"";
        quoted.append(JsonWriter::escape(k)).append("\":");
        if (text.find(quoted) == std::string::npos) {
            if (error)
                *error = path + " lacks required key \"" + k + "\"";
            return false;
        }
    }
    return true;
}

} // namespace gpm::telemetry
