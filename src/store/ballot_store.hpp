// Ballot data sources for VC nodes. The paper's prototype keeps each VC
// node's initialization data in PostgreSQL; here the same role is played by
// either an in-memory source (tests, small elections) or a paged disk file
// with a binary-searched sorted index and an LRU page cache
// (DiskBallotSource) whose lookup cost grows with log(n) index pages —
// the effect Figure 5a measures.
#pragma once

#include <atomic>
#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace ddemos::store {

class BallotDataSource {
 public:
  virtual ~BallotDataSource() = default;
  // The initialization data for `serial`, or nullptr if unknown. A source
  // that holds its ballots in memory returns a pointer to its own copy and
  // leaves `buf` alone; one that reads them from disk decodes into `buf`
  // and returns &buf, so concurrent callers share no state. The result
  // lives as long as both the source and `buf`.
  virtual const core::VcBallotInit* find(core::Serial serial,
                                         core::VcBallotInit& buf) = 0;
  // Number of registered ballots.
  virtual std::size_t size() const = 0;
  // Serial of the idx-th ballot in ascending serial order (the dense
  // instance numbering used by the batched vote-set consensus).
  virtual core::Serial serial_at(std::size_t idx) = 0;
  virtual std::optional<std::size_t> index_of(core::Serial serial) = 0;
  // Cumulative count of cache-missing page reads. A VC charges the
  // simulator cost table's storage latency per fault (the host OS page
  // cache would otherwise hide the I/O cost a production-size table
  // incurs).
  virtual std::uint64_t page_faults() const { return 0; }
};

class MemoryBallotSource final : public BallotDataSource {
 public:
  // `ballots` must be sorted by serial (as produced by the EA).
  explicit MemoryBallotSource(std::vector<core::VcBallotInit> ballots);

  const core::VcBallotInit* find(core::Serial serial,
                                 core::VcBallotInit& buf) override;
  std::size_t size() const override { return ballots_.size(); }
  core::Serial serial_at(std::size_t idx) override;
  std::optional<std::size_t> index_of(core::Serial serial) override;

 private:
  std::vector<core::VcBallotInit> ballots_;
};

// File layout:
//   [u64 magic][u64 count]
//   index: count * (u64 serial, u64 offset, u32 length), sorted by serial
//   records: encoded VcBallotInit blobs
//
// Concurrency: the source behaves like a small read-only connection pool
// (the paper's PostgreSQL role). `read_handles` independent stripes each
// own a FILE*, a mutex and a slice of the LRU page cache; lookups hash the
// serial onto a stripe, so the shards of a sharded VC node no longer
// serialize behind one lock. Hot index pages may be cached once per stripe
// — bounded duplication traded for lock-free-across-stripes reads.
class DiskBallotSource final : public BallotDataSource {
 public:
  static void build(const std::string& path,
                    const std::vector<core::VcBallotInit>& ballots);
  // Streaming builder for large files: ballots must arrive sorted.
  class Builder {
   public:
    explicit Builder(const std::string& path);
    ~Builder();
    void add(const core::VcBallotInit& ballot);
    void finish();

   private:
    std::string path_;
    std::FILE* records_;
    std::vector<std::tuple<core::Serial, std::uint64_t, std::uint32_t>> index_;
    std::uint64_t offset_ = 0;
    bool finished_ = false;
  };

  // `cache_pages` is the total page-cache budget, split evenly across the
  // `read_handles` stripes (pass the VC shard count for sharded nodes).
  explicit DiskBallotSource(const std::string& path,
                            std::size_t cache_pages = 256,
                            std::size_t read_handles = 1);
  ~DiskBallotSource() override;

  const core::VcBallotInit* find(core::Serial serial,
                                 core::VcBallotInit& buf) override;
  std::size_t size() const override { return count_; }
  core::Serial serial_at(std::size_t idx) override;
  std::optional<std::size_t> index_of(core::Serial serial) override;

  std::uint64_t page_reads() const {
    return page_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t page_faults() const override { return page_reads(); }

 private:
  static constexpr std::size_t kPageSize = 4096;
  static constexpr std::size_t kIndexEntry = 20;  // 8 + 8 + 4
  struct IndexEntry {
    core::Serial serial;
    std::uint64_t offset;
    std::uint32_t length;
  };
  // One independent read handle: its own FILE*, lock and LRU cache slice.
  struct Stripe {
    // Owns its FILE* so partially-constructed sources (a later fopen or
    // header read failing) do not leak the handles already opened.
    ~Stripe() {
      if (file) std::fclose(file);
    }
    std::mutex mu;
    std::FILE* file = nullptr;
    // LRU page cache (guarded by mu).
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t,
                       std::pair<std::vector<std::uint8_t>,
                                 std::list<std::uint64_t>::iterator>>
        cache;
    std::size_t cache_pages = 4;
  };

  Stripe& stripe_for(core::Serial serial);
  // _locked helpers require the stripe's mu held (public entry points take
  // it once; find() composes index_of + record read under a single hold).
  std::optional<std::size_t> index_of_locked(Stripe& s, core::Serial serial);
  const std::uint8_t* page(Stripe& s, std::uint64_t page_no);
  IndexEntry index_entry(Stripe& s, std::size_t idx);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::uint64_t count_ = 0;
  std::uint64_t index_base_ = 16;
  std::uint64_t records_base_ = 0;
  // Atomic: read lock-free by the per-fault cost accounting in VcNode.
  std::atomic<std::uint64_t> page_reads_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
};

}  // namespace ddemos::store
