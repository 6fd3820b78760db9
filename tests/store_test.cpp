#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "crypto/rng.hpp"
#include "crypto/commit.hpp"
#include "ea/ea.hpp"
#include "store/ballot_store.hpp"

namespace ddemos::store {
namespace {

using core::Serial;
using core::VcBallotInit;

std::vector<VcBallotInit> make_ballots(std::size_t n, std::uint64_t seed) {
  // Small synthetic records with all fields populated.
  crypto::Rng rng(seed);
  std::set<Serial> serials;
  while (serials.size() < n) serials.insert(rng.u64());
  std::vector<VcBallotInit> out;
  for (Serial s : serials) {
    VcBallotInit b;
    b.serial = s;
    for (auto& part : b.parts) {
      part.resize(2);
      for (auto& line : part) {
        Bytes code = rng.bytes(20);
        line.salt = rng.bytes(8);
        line.code_hash = crypto::salted_commit(code, line.salt);
        line.receipt_share =
            crypto::Share{1, crypto::Fn::from_u64(rng.u64())};
        line.share_root = crypto::MerkleTree::leaf_hash(code);
        line.share_path = {line.share_root};
      }
    }
    out.push_back(std::move(b));
  }
  return out;
}

TEST(MemorySource, FindAndIndex) {
  auto ballots = make_ballots(50, 1);
  std::vector<Serial> serials;
  for (const auto& b : ballots) serials.push_back(b.serial);
  MemoryBallotSource src(ballots);
  EXPECT_EQ(src.size(), 50u);
  for (std::size_t i = 0; i < serials.size(); ++i) {
    EXPECT_EQ(src.serial_at(i), serials[i]);
    EXPECT_EQ(src.index_of(serials[i]), i);
    VcBallotInit buf;
    const VcBallotInit* found = src.find(serials[i], buf);
    ASSERT_NE(found, nullptr);
    EXPECT_NE(found, &buf);  // handed out in place, not copied
    EXPECT_EQ(found->serial, serials[i]);
  }
  VcBallotInit buf;
  EXPECT_EQ(src.find(0xdeadbeef, buf), nullptr);  // not a real serial
}

TEST(MemorySource, RejectsUnsorted) {
  auto ballots = make_ballots(5, 2);
  std::swap(ballots[0], ballots[1]);
  EXPECT_THROW(MemoryBallotSource{ballots}, ProtocolError);
}

class DiskSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process, so concurrent runs of this binary share no files.
    dir_ = std::string(::testing::TempDir()) + "ddemos_store_test_" +
           std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/test.ballots";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_, path_;
};

TEST_F(DiskSourceTest, RoundTripsAllRecords) {
  auto ballots = make_ballots(200, 3);
  DiskBallotSource::build(path_, ballots);
  DiskBallotSource src(path_, 16);
  EXPECT_EQ(src.size(), 200u);
  for (const auto& b : ballots) {
    VcBallotInit buf;
    const VcBallotInit* found = src.find(b.serial, buf);
    ASSERT_EQ(found, &buf);  // decoded into the caller's buffer
    EXPECT_EQ(found->serial, b.serial);
    ASSERT_EQ(found->parts[0].size(), b.parts[0].size());
    EXPECT_EQ(found->parts[0][0].code_hash, b.parts[0][0].code_hash);
    EXPECT_EQ(found->parts[1][1].salt, b.parts[1][1].salt);
  }
}

TEST_F(DiskSourceTest, MissingSerialReturnsNullopt) {
  auto ballots = make_ballots(20, 4);
  DiskBallotSource::build(path_, ballots);
  DiskBallotSource src(path_);
  VcBallotInit buf;
  EXPECT_EQ(src.find(1, buf), nullptr);
}

TEST_F(DiskSourceTest, SerialAtMatchesSortedOrder) {
  auto ballots = make_ballots(64, 5);
  DiskBallotSource::build(path_, ballots);
  DiskBallotSource src(path_);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(src.serial_at(i), ballots[i].serial);
    EXPECT_EQ(src.index_of(ballots[i].serial), i);
  }
  EXPECT_THROW(src.serial_at(64), ProtocolError);
}

TEST_F(DiskSourceTest, CacheHitsGrowOnRepeatedLookups) {
  auto ballots = make_ballots(500, 6);
  DiskBallotSource::build(path_, ballots);
  DiskBallotSource src(path_, 128);
  VcBallotInit buf;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 500; i += 7) {
      (void)src.find(ballots[i].serial, buf);
    }
  }
  EXPECT_GT(src.cache_hits(), src.page_reads());
}

TEST_F(DiskSourceTest, TinyCacheStillCorrect) {
  auto ballots = make_ballots(300, 7);
  DiskBallotSource::build(path_, ballots);
  DiskBallotSource src(path_, 4);  // pathologically small cache
  crypto::Rng rng(8);
  VcBallotInit buf;
  for (int i = 0; i < 500; ++i) {
    std::size_t idx = rng.below(300);
    const VcBallotInit* found = src.find(ballots[idx].serial, buf);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->serial, ballots[idx].serial);
  }
}

TEST_F(DiskSourceTest, StreamingBuilderMatchesBatchBuild) {
  auto ballots = make_ballots(40, 9);
  DiskBallotSource::build(path_, ballots);
  std::string path2 = dir_ + "/stream.ballots";
  DiskBallotSource::Builder builder(path2);
  for (const auto& b : ballots) builder.add(b);
  builder.finish();
  DiskBallotSource a(path_), b(path2);
  ASSERT_EQ(a.size(), b.size());
  VcBallotInit buf_a, buf_b;
  for (const auto& ballot : ballots) {
    EXPECT_EQ(a.find(ballot.serial, buf_a)->parts[0][0].code_hash,
              b.find(ballot.serial, buf_b)->parts[0][0].code_hash);
  }
}

TEST_F(DiskSourceTest, BuilderRejectsUnsorted) {
  auto ballots = make_ballots(3, 10);
  DiskBallotSource::Builder builder(path_);
  builder.add(ballots[2]);
  EXPECT_THROW(builder.add(ballots[0]), ProtocolError);
}

TEST_F(DiskSourceTest, ConcurrentReadersOverStripedHandles) {
  // Per-shard read handles (lock-striped LRU + one FILE* per stripe): many
  // threads hammering find/index_of/serial_at concurrently must all see
  // correct records. Run with --gtest_filter under TSan CI for the race
  // check; here we assert correctness and that the stripes actually read.
  auto ballots = make_ballots(400, 12);
  DiskBallotSource::build(path_, ballots);
  DiskBallotSource src(path_, 64, 4);  // 4 read handles
  constexpr int kThreads = 4;
  constexpr int kLookups = 600;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      crypto::Rng rng(static_cast<std::uint64_t>(100 + t));
      VcBallotInit buf;
      for (int i = 0; i < kLookups; ++i) {
        std::size_t idx = rng.below(400);
        const VcBallotInit* found = src.find(ballots[idx].serial, buf);
        if (!found || found->serial != ballots[idx].serial ||
            found->parts[0][0].code_hash != ballots[idx].parts[0][0].code_hash) {
          ++failures;
          continue;
        }
        if (src.index_of(ballots[idx].serial) != idx ||
            src.serial_at(idx) != ballots[idx].serial) {
          ++failures;
        }
        if (src.find(ballots[idx].serial ^ 0x5a5a5a5aull, buf)) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(src.page_reads(), 0u);
  EXPECT_GT(src.cache_hits(), 0u);
}

TEST_F(DiskSourceTest, SingleHandleStillCorrect) {
  // read_handles = 1 degenerates to the old single-lock behavior.
  auto ballots = make_ballots(50, 13);
  DiskBallotSource::build(path_, ballots);
  DiskBallotSource src(path_, 16, 1);
  VcBallotInit buf;
  for (const auto& b : ballots) {
    ASSERT_NE(src.find(b.serial, buf), nullptr);
  }
}

TEST_F(DiskSourceTest, RejectsCorruptHeader) {
  auto ballots = make_ballots(3, 11);
  DiskBallotSource::build(path_, ballots);
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    std::fputc(0x42, f);  // clobber magic
    std::fclose(f);
  }
  EXPECT_THROW(DiskBallotSource{path_}, ProtocolError);
}

TEST_F(DiskSourceTest, MissingFileThrows) {
  EXPECT_THROW(DiskBallotSource{dir_ + "/no/such/file"}, ProtocolError);
}

}  // namespace
}  // namespace ddemos::store
