#pragma once

#include <clocale>
#include <string>

/// \file ctype_locales.h
/// Runs a check under several LC_CTYPE locales, for code that promises not
/// to depend on the process locale. The "C" locale always runs; the others
/// run only where the host has them installed. The single-byte Latin-1
/// locales are the ones that catch a <cctype> call: under them isspace()
/// accepts 0x85 and 0xA0 and tolower() rewrites 0xC0-0xDE.

namespace mh::testutil {

template <typename Fn>
void forEachCtypeLocale(Fn&& check) {
  static const char* kCandidates[] = {
      "C",          "C.UTF-8",          "en_US.UTF-8",    "en_US.ISO-8859-1",
      "en_US",      "de_DE.ISO-8859-1", "de_DE",          "fr_FR.ISO-8859-1",
      "fr_FR",      "en_US.iso88591",   "de_DE.iso88591", "fr_FR.iso88591"};
  const std::string saved = std::setlocale(LC_CTYPE, nullptr);
  for (const char* name : kCandidates) {
    if (std::setlocale(LC_CTYPE, name) == nullptr) continue;
    check(std::string(name));
  }
  std::setlocale(LC_CTYPE, saved.c_str());
}

}  // namespace mh::testutil
