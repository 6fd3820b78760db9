// WAL edge cases: torn final record (truncated cleanly, earlier records
// intact), CRC-corrupted middle record (fails closed with a diagnostic),
// snapshot+truncate idempotence, and replay determinism across reopenings.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>

#include "store/wal.hpp"

namespace ddemos::store {
namespace {

struct Replayed {
  std::uint8_t type;
  Bytes payload;
  bool operator==(const Replayed&) const = default;
};

std::vector<Replayed> replay_all(Wal& wal, WalReplayResult* out = nullptr) {
  std::vector<Replayed> seen;
  WalReplayResult res = wal.replay([&](std::uint8_t type, BytesView payload) {
    seen.push_back({type, Bytes(payload.begin(), payload.end())});
  });
  if (out) *out = res;
  return seen;
}

std::string temp_wal_path(const char* tag) {
  return std::string(::testing::TempDir()) + "wal_test_" + tag + "_" +
         std::to_string(::getpid()) + ".wal";
}

Bytes read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
}

TEST(Wal, RoundTripAndReplayDeterminism) {
  std::string path = temp_wal_path("roundtrip");
  std::remove(path.c_str());

  std::vector<Replayed> written;
  {
    Wal wal(path, {FsyncPolicy::kAlways, 1});
    WalReplayResult res;
    EXPECT_TRUE(replay_all(wal, &res).empty());
    EXPECT_FALSE(res.torn_tail);

    std::mt19937_64 rng(7);
    for (int i = 0; i < 200; ++i) {
      // Every 10th record is empty, like the VC's kWalPushed marker.
      Bytes payload(i % 10 == 0 ? 0 : rng() % 300);
      for (auto& b : payload) b = std::uint8_t(rng());
      std::uint8_t type = std::uint8_t(1 + (i % 5));
      wal.append(type, payload);
      written.push_back({type, payload});
    }
    EXPECT_EQ(wal.records(), 200u);
  }

  // Two independent reopenings replay the identical sequence.
  for (int round = 0; round < 2; ++round) {
    Wal wal(path, {});
    WalReplayResult res;
    std::vector<Replayed> seen = replay_all(wal, &res);
    EXPECT_EQ(res.records, 200u);
    EXPECT_FALSE(res.torn_tail);
    EXPECT_EQ(seen, written);
  }
  std::remove(path.c_str());
}

TEST(Wal, TornFinalRecordIsTruncatedCleanly) {
  std::string path = temp_wal_path("torn");
  std::remove(path.c_str());
  {
    Wal wal(path, {FsyncPolicy::kNever, 0});
    replay_all(wal);
    wal.append(1, to_bytes("first"));
    wal.append(2, to_bytes("second"));
    wal.append(3, to_bytes("third-will-be-torn"));
  }
  // Chop bytes off the final frame, emulating a crash mid-write. Every
  // truncation point inside the last record must recover to exactly the
  // first two records — and stay recovered after the repair (append works).
  Bytes full = read_file(path);
  for (std::size_t cut = 1; cut < 9 + 18; cut += 5) {
    write_file(path, Bytes(full.begin(), full.end() - cut));
    Wal wal(path, {FsyncPolicy::kAlways, 1});
    WalReplayResult res;
    std::vector<Replayed> seen = replay_all(wal, &res);
    EXPECT_TRUE(res.torn_tail) << "cut=" << cut;
    EXPECT_EQ(res.truncated_bytes, (9 + 18) - cut) << "cut=" << cut;
    ASSERT_EQ(seen.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(seen[0].payload, to_bytes("first"));
    EXPECT_EQ(seen[1].payload, to_bytes("second"));
    // The file was repaired in place: appends after recovery are durable
    // and a fresh replay sees no tear.
    wal.append(4, to_bytes("after-recovery"));
    Wal again(path, {});
    WalReplayResult res2;
    std::vector<Replayed> seen2 = replay_all(again, &res2);
    EXPECT_FALSE(res2.torn_tail);
    ASSERT_EQ(seen2.size(), 3u);
    EXPECT_EQ(seen2[2].payload, to_bytes("after-recovery"));
  }
  std::remove(path.c_str());
}

TEST(Wal, CorruptMiddleRecordFailsClosedWithDiagnostic) {
  std::string path = temp_wal_path("corrupt");
  std::remove(path.c_str());
  {
    Wal wal(path, {FsyncPolicy::kNever, 0});
    replay_all(wal);
    wal.append(1, to_bytes("aaaa"));
    wal.append(2, to_bytes("bbbb"));
    wal.append(3, to_bytes("cccc"));
  }
  // Flip one payload byte in the middle record: a complete frame with a
  // bad checksum is corruption, not a torn write — replay must throw, and
  // the diagnostic must say which record and where.
  Bytes full = read_file(path);
  // layout: 8 header + rec0 (5+4+4=13) + rec1 ... flip a byte in rec1's payload
  full[8 + 13 + 5 + 1] ^= 0x40;
  write_file(path, full);
  Wal wal(path, {});
  try {
    replay_all(wal);
    FAIL() << "corrupt middle record must fail replay";
  } catch (const WalError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("record 1"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Wal, CorruptFinalCompleteRecordAlsoFailsClosed) {
  std::string path = temp_wal_path("corrupt_tail");
  std::remove(path.c_str());
  {
    Wal wal(path, {FsyncPolicy::kNever, 0});
    replay_all(wal);
    wal.append(1, to_bytes("aaaa"));
    wal.append(2, to_bytes("bbbb"));
  }
  // A *complete* final frame with a flipped bit is damage, not a tear
  // (torn writes leave short frames): fail closed here too.
  Bytes full = read_file(path);
  full[full.size() - 6] ^= 0x01;  // inside rec1's payload
  write_file(path, full);
  Wal wal(path, {});
  EXPECT_THROW(replay_all(wal), WalError);
  std::remove(path.c_str());
}

TEST(Wal, SnapshotCompactsAndIsIdempotent) {
  std::string path = temp_wal_path("snapshot");
  std::remove(path.c_str());
  {
    Wal wal(path, {FsyncPolicy::kInterval, 8});
    replay_all(wal);
    for (int i = 0; i < 50; ++i) wal.append(1, to_bytes("ballot"));
    wal.snapshot(9, to_bytes("state-at-announce"));
    EXPECT_EQ(wal.records(), 1u);
    // Appends continue on the compacted file.
    wal.append(2, to_bytes("decided"));
  }
  {
    Wal wal(path, {});
    std::vector<Replayed> seen = replay_all(wal);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].type, 9);
    EXPECT_EQ(seen[0].payload, to_bytes("state-at-announce"));
    EXPECT_EQ(seen[1].payload, to_bytes("decided"));
    // Idempotence: snapshotting the same state again yields a file that
    // replays identically, however many times it runs.
    wal.snapshot(9, to_bytes("state-at-announce"));
    wal.snapshot(9, to_bytes("state-at-announce"));
  }
  {
    Wal wal(path, {});
    std::vector<Replayed> seen = replay_all(wal);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].type, 9);
    EXPECT_EQ(seen[0].payload, to_bytes("state-at-announce"));
  }
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Wal, LifecycleMisuseThrows) {
  std::string path = temp_wal_path("misuse");
  std::remove(path.c_str());
  Wal wal(path, {});
  EXPECT_THROW(wal.append(1, to_bytes("x")), WalError);   // before replay
  EXPECT_THROW(wal.snapshot(1, to_bytes("x")), WalError);  // before replay
  replay_all(wal);
  EXPECT_THROW(replay_all(wal), WalError);  // replay twice
  std::remove(path.c_str());
}

TEST(Wal, NotAWalFileFailsClosed) {
  std::string path = temp_wal_path("badmagic");
  write_file(path, to_bytes("this is not a wal file at all"));
  Wal wal(path, {});
  EXPECT_THROW(replay_all(wal), WalError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddemos::store
