#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <string>

/// \file process_threads.h
/// The number of threads this process has right now.

namespace mh::testutil {

/// The "Threads:" line of /proc/self/status.
inline int processThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

}  // namespace mh::testutil
