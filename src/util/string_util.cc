#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace tcf {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

StatusOr<uint64_t> ParseUint64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer");
  uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument("not an unsigned integer: " +
                                     std::string(s));
    }
    uint64_t d = static_cast<uint64_t>(ch - '0');
    if (v > (UINT64_MAX - d) / 10) {
      return Status::OutOfRange("integer overflow: " + std::string(s));
    }
    v = v * 10 + d;
  }
  return v;
}

StatusOr<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty double");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a double: " + buf);
  }
  if (errno == ERANGE) return Status::OutOfRange("double overflow: " + buf);
  return v;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace tcf
