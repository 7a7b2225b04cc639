#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file strings.h
/// Small string helpers shared across modules (path handling, trimming,
/// human-readable sizes).

namespace mh {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> splitString(std::string_view s, char delim);

/// Returns the next run of non-whitespace bytes at or after `pos` and moves
/// `pos` past it; an empty view means no token is left. Allocates nothing:
/// the token is a view into `s`. Whitespace here and below is the six ASCII
/// bytes space, \t \n \v \f \r (the "C"-locale set), whatever the
/// process locale is.
std::string_view nextWhitespaceToken(std::string_view s, size_t& pos);

/// Splits on runs of ASCII whitespace; drops empty fields. The views point
/// into `s` and live only as long as the bytes it views.
std::vector<std::string_view> splitWhitespace(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Joins parts with a delimiter.
std::string joinStrings(const std::vector<std::string>& parts,
                        std::string_view delim);

/// Renders a byte count as "1.5 MB" style text (binary units).
std::string formatBytes(uint64_t bytes);

/// Renders milliseconds as "1m 23.4s" style text.
std::string formatMillis(int64_t ms);

/// Lower-cases A-Z; leaves every other byte (including bytes >= 0x80)
/// untouched. Ignores the process locale.
std::string toLowerAscii(std::string_view s);

/// toLowerAscii into `out`, reusing its capacity.
void assignLowerAscii(std::string& out, std::string_view s);

/// True if `s` consists only of [0-9] and is non-empty.
bool isDigits(std::string_view s);

}  // namespace mh
