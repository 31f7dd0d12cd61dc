#include "util/file.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

namespace wss::util {
namespace {

namespace fs = std::filesystem;

class PublishFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_file_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir_)) {
      names.push_back(e.path().filename().string());
    }
    return names;
  }

  fs::path dir_;
};

TEST_F(PublishFileTest, ReplacesTheFileAndLeavesNoTmp) {
  const std::string path = (dir_ / "state").string();
  publish_file(path, [](std::ostream& os) { os << "first"; });
  publish_file(path, [](std::ostream& os) { os << "second"; }, "worker-1");
  EXPECT_EQ(read_file(path), "second");
  EXPECT_EQ(entries(), std::vector<std::string>{"state"});
}

TEST_F(PublishFileTest, InterruptedWriteLeavesPreviousFileIntact) {
  const std::string path = (dir_ / "state").string();
  const std::string previous(100000, 'p');
  publish_file(path, [&](std::ostream& os) { os << previous; });

  try {
    publish_file(path, [](std::ostream& os) {
      os << std::string(50000, 'n');  // halfway through the new file
      throw std::runtime_error("disk full");
    });
    FAIL() << "the writer's failure was swallowed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("disk full"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  EXPECT_EQ(read_file(path), previous);
  EXPECT_EQ(entries(), std::vector<std::string>{"state"});
}

TEST_F(PublishFileTest, FailedRenameRemovesTmp) {
  // A directory in the way of the final name: the tmp file is written
  // and synced, then the rename fails.
  const fs::path blocked = dir_ / "blocked";
  fs::create_directories(blocked);
  EXPECT_THROW(publish_file(blocked.string(),
                            [](std::ostream& os) { os << "data"; }),
               std::runtime_error);
  EXPECT_TRUE(fs::is_directory(blocked));
  EXPECT_EQ(entries(), std::vector<std::string>{"blocked"});
}

TEST_F(PublishFileTest, MissingDirectoryIsCannotOpen) {
  const std::string path = (dir_ / "no-such-dir" / "f").string();
  try {
    publish_file(path, [](std::ostream& os) { os << "x"; });
    FAIL() << "published into a missing directory";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open " + path);
  }
  EXPECT_THROW(read_file(path), std::runtime_error);
}

}  // namespace
}  // namespace wss::util
