/**
 * @file
 * Small string-formatting helpers. GCC 12 lacks <format>, so fmt() is a
 * printf-style wrapper returning std::string, plus join/split utilities
 * used by the printers and emitters.
 */
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace muir
{

/** printf-style formatting into a std::string. */
std::string fmtv(const char *format, va_list args);

/** printf-style formatting into a std::string. */
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string fmt(const char *format, ...);

/** Identity overload so macros can pass through an existing string. */
inline std::string fmt(const std::string &s) { return s; }

/** Join elements with a separator using operator<<. */
template <typename Container>
std::string
join(const Container &items, const std::string &sep)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &item : items) {
        if (!first)
            os << sep;
        os << item;
        first = false;
    }
    return os.str();
}

/** Split a string on a delimiter character. */
std::vector<std::string> split(const std::string &text, char delim);

/** @return text with every occurrence of from replaced by to. */
std::string replaceAll(std::string text, const std::string &from,
                       const std::string &to);

/** @return true if text starts with prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/**
 * Terminal column count of a UTF-8 string: code points, not bytes
 * (continuation bytes are free), so µscope's sparkline glyphs align
 * in tables. Identical to size() for pure-ASCII text.
 */
size_t displayWidth(const std::string &s);

/** Left-pad or right-pad to a column width (for ASCII tables). */
std::string padLeft(const std::string &s, size_t width);
std::string padRight(const std::string &s, size_t width);

/**
 * Quote a CSV field per RFC 4180 when needed: fields containing
 * commas, quotes, or newlines are wrapped in double quotes with
 * embedded quotes doubled; anything else passes through unchanged.
 */
std::string csvQuote(const std::string &field);

/**
 * Strict decimal parse: ASCII digits only (no sign, space or base
 * prefix) with no overflow. @return false and leave @p out alone on
 * anything else, so junk is an error rather than a silent zero.
 */
bool parseU64(const std::string &text, uint64_t &out);

/** parseU64 of a count in [1, 2^20] (unroll factors, tiles, runs). */
bool parsePositive(const std::string &text, unsigned &out);

/** FNV-1a over a byte string: the same 64-bit hash on every platform. */
uint64_t fnv1a64(const std::string &bytes);

} // namespace muir
