#include "support/strings.hh"

#include <cstring>

namespace muir
{

std::string
fmtv(const char *format, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, format, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(format);
    std::string out(static_cast<size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, format, args);
    return out;
}

std::string
fmt(const char *format, ...)
{
    va_list args;
    va_start(args, format);
    std::string out = fmtv(format, args);
    va_end(args);
    return out;
}

std::vector<std::string>
split(const std::string &text, char delim)
{
    std::vector<std::string> parts;
    std::string current;
    for (char c : text) {
        if (c == delim) {
            parts.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    parts.push_back(current);
    return parts;
}

std::string
replaceAll(std::string text, const std::string &from, const std::string &to)
{
    if (from.empty())
        return text;
    size_t pos = 0;
    while ((pos = text.find(from, pos)) != std::string::npos) {
        text.replace(pos, from.size(), to);
        pos += to.size();
    }
    return text;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           std::memcmp(text.data(), prefix.data(), prefix.size()) == 0;
}

size_t
displayWidth(const std::string &s)
{
    size_t width = 0;
    for (unsigned char c : s)
        if ((c & 0xC0) != 0x80)
            ++width;
    return width;
}

std::string
padLeft(const std::string &s, size_t width)
{
    size_t have = displayWidth(s);
    if (have >= width)
        return s;
    return std::string(width - have, ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    size_t have = displayWidth(s);
    if (have >= width)
        return s;
    return s + std::string(width - have, ' ');
}

std::string
csvQuote(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out;
    out.reserve(field.size() + 2);
    out += '"';
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

bool
parseU64(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        uint64_t digit = uint64_t(c - '0');
        if (v > (~uint64_t(0) - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
parsePositive(const std::string &text, unsigned &out)
{
    uint64_t v = 0;
    if (!parseU64(text, v) || v == 0 || v > (1u << 20))
        return false;
    out = unsigned(v);
    return true;
}

uint64_t
fnv1a64(const std::string &bytes)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace muir
