#include "mh/common/strings.h"

#include <sstream>

namespace mh {

namespace {

bool isAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::vector<std::string> splitString(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view nextWhitespaceToken(std::string_view s, size_t& pos) {
  while (pos < s.size() && isAsciiSpace(s[pos])) ++pos;
  const size_t start = pos;
  while (pos < s.size() && !isAsciiSpace(s[pos])) ++pos;
  return s.substr(start, pos - start);
}

std::vector<std::string_view> splitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  for (std::string_view token = nextWhitespaceToken(s, pos); !token.empty();
       token = nextWhitespaceToken(s, pos)) {
    out.push_back(token);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && isAsciiSpace(s[begin])) ++begin;
  while (end > begin && isAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string joinStrings(const std::vector<std::string>& parts,
                        std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string formatBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    v /= 1024.0;
    ++unit;
  }
  std::ostringstream out;
  out.precision(v < 10 ? 2 : 1);
  out << std::fixed << v << " " << kUnits[unit];
  return out.str();
}

std::string formatMillis(int64_t ms) {
  std::ostringstream out;
  if (ms < 0) {
    out << "-";
    ms = -ms;
  }
  const int64_t hours = ms / 3'600'000;
  const int64_t minutes = (ms / 60'000) % 60;
  const double seconds = static_cast<double>(ms % 60'000) / 1000.0;
  if (hours > 0) out << hours << "h ";
  if (hours > 0 || minutes > 0) out << minutes << "m ";
  out.precision(ms >= 60'000 ? 0 : 3);
  out << std::fixed << seconds << "s";
  return out.str();
}

std::string toLowerAscii(std::string_view s) {
  std::string out;
  assignLowerAscii(out, s);
  return out;
}

void assignLowerAscii(std::string& out, std::string_view s) {
  out.assign(s);
  for (auto& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

bool isDigits(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace mh
