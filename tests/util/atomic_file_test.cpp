#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "support/test_dir.hpp"
#include "util/atomic_file.hpp"

namespace mmog::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

TEST(AtomicFileWriter, CommitPublishesContent) {
  const test::TestDir dir;
  const auto path = (dir / "report.json").string();
  AtomicFileWriter w(path);
  w.stream() << "{\"ok\":true}\n";
  w.commit();
  EXPECT_EQ(slurp(path), "{\"ok\":true}\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // nothing torn left behind
}

TEST(AtomicFileWriter, NothingPublishedWithoutCommit) {
  const test::TestDir dir;
  const auto path = (dir / "report.json").string();
  {
    AtomicFileWriter w(path);
    w.stream() << "half-written";
  }  // destroyed uncommitted — a crash before the commit point
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicFileWriter, CommitReplacesExistingFile) {
  const test::TestDir dir;
  const auto path = (dir / "report.json").string();
  write_file_atomic(path, "old\n");
  AtomicFileWriter w(path);
  w.stream() << "new\n";
  w.commit();
  EXPECT_EQ(slurp(path), "new\n");
  EXPECT_FALSE(fs::exists(path + ".prev"));  // not asked to keep it
}

TEST(AtomicFileWriter, KeepPreviousRetainsDisplacedGeneration) {
  const test::TestDir dir;
  const auto path = (dir / "ckpt.jsonl").string();
  write_file_atomic(path, "generation-1\n");
  write_file_atomic(path, "generation-2\n", /*keep_previous=*/true);
  EXPECT_EQ(slurp(path), "generation-2\n");
  EXPECT_EQ(slurp(path + ".prev"), "generation-1\n");

  // A third generation displaces the second into .prev.
  write_file_atomic(path, "generation-3\n", /*keep_previous=*/true);
  EXPECT_EQ(slurp(path), "generation-3\n");
  EXPECT_EQ(slurp(path + ".prev"), "generation-2\n");
}

TEST(AtomicFileWriter, KeepPreviousWithNoExistingFile) {
  const test::TestDir dir;
  const auto path = (dir / "ckpt.jsonl").string();
  write_file_atomic(path, "first\n", /*keep_previous=*/true);
  EXPECT_EQ(slurp(path), "first\n");
  EXPECT_FALSE(fs::exists(path + ".prev"));
}

TEST(AtomicFileWriter, ThrowsOnUnwritablePath) {
  AtomicFileWriter w((fs::path("/nonexistent-dir") / "x.json").string());
  w.stream() << "data";
  EXPECT_THROW(w.commit(), std::runtime_error);
}

}  // namespace
}  // namespace mmog::util
