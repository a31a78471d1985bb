#include "telemetry/telemetry.hpp"

#include "telemetry/json.hpp"

namespace gpm::telemetry {

void
Span::rawArg(std::string_view key, std::string_view rendered)
{
    args_ += args_.empty() ? "{\"" : ", \"";
    args_ += JsonWriter::escape(key);
    args_ += "\": ";
    args_ += rendered;
}

void
Span::arg(std::string_view key, double v)
{
    if (s_)
        rawArg(key, JsonWriter::number(v));
}

void
Span::arg(std::string_view key, std::string_view v)
{
    if (!s_)
        return;
    std::string quoted = "\"";
    quoted.append(JsonWriter::escape(v)).append("\"");
    rawArg(key, quoted);
}

} // namespace gpm::telemetry
