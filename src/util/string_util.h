#ifndef TCF_UTIL_STRING_UTIL_H_
#define TCF_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace tcf {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Strips leading/trailing whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; rejects trailing garbage.
StatusOr<uint64_t> ParseUint64(std::string_view s);

/// Parses a double; rejects trailing garbage.
StatusOr<double> ParseDouble(std::string_view s);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace tcf

#endif  // TCF_UTIL_STRING_UTIL_H_
