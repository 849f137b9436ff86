// Temporary file paths for tests that write artifacts.  Names carry the process
// id, so two runs of the suite on one host at the same time (a sanitizer lane
// beside the plain one, say) never write, read or delete each other's files.
#pragma once

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace ufab {

/// `name` under the test temp directory, unique to this process.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

}  // namespace ufab
