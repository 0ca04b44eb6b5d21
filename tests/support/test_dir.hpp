#pragma once

// Per-test scratch directories. ctest runs every test in its own process
// and, under `ctest -j`, several at once, so a fixed name under
// ::testing::TempDir() is shared by tests that run concurrently: one
// test's cleanup deletes another's files mid-run. A TestDir is keyed by
// the process id and the running test's suite and name, so no two tests,
// nor two concurrent repeats of one test, ever share a directory.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace mmog::test {

/// A fresh, empty directory for the running test, removed with everything
/// in it when the object dies.
class TestDir {
 public:
  TestDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string leaf = "mmog_";
    leaf += std::to_string(::getpid());
    leaf += '_';
    leaf += info->test_suite_name();
    leaf += '.';
    leaf += info->name();
    // Parameterized suites and tests carry '/' in their names.
    std::replace(leaf.begin(), leaf.end(), '/', '_');
    path_ = std::filesystem::path(::testing::TempDir()) / leaf;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }
  std::filesystem::path operator/(std::string_view leaf) const {
    return path_ / leaf;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace mmog::test
