#include "store/ballot_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace ddemos::store {

using core::Serial;
using core::VcBallotInit;

MemoryBallotSource::MemoryBallotSource(std::vector<VcBallotInit> ballots)
    : ballots_(std::move(ballots)) {
  for (std::size_t i = 1; i < ballots_.size(); ++i) {
    if (ballots_[i - 1].serial >= ballots_[i].serial) {
      throw ProtocolError("MemoryBallotSource: ballots must be sorted");
    }
  }
}

const VcBallotInit* MemoryBallotSource::find(Serial serial, VcBallotInit&) {
  auto idx = index_of(serial);
  if (!idx) return nullptr;
  return &ballots_[*idx];
}

Serial MemoryBallotSource::serial_at(std::size_t idx) {
  return ballots_.at(idx).serial;
}

std::optional<std::size_t> MemoryBallotSource::index_of(Serial serial) {
  auto it = std::lower_bound(
      ballots_.begin(), ballots_.end(), serial,
      [](const VcBallotInit& b, Serial s) { return b.serial < s; });
  if (it == ballots_.end() || it->serial != serial) return std::nullopt;
  return static_cast<std::size_t>(it - ballots_.begin());
}

// --- Disk source -----------------------------------------------------------

DiskBallotSource::Builder::Builder(const std::string& path) : path_(path) {
  records_ = std::fopen((path + ".records.tmp").c_str(), "wb");
  if (!records_) throw ProtocolError("cannot create " + path);
}

DiskBallotSource::Builder::~Builder() {
  if (!finished_ && records_) std::fclose(records_);
}

void DiskBallotSource::Builder::add(const VcBallotInit& ballot) {
  if (!index_.empty() && std::get<0>(index_.back()) >= ballot.serial) {
    throw ProtocolError("DiskBallotSource: ballots must arrive sorted");
  }
  Writer w;
  ballot.encode(w);
  const Bytes& blob = w.data();
  index_.emplace_back(ballot.serial, offset_,
                      static_cast<std::uint32_t>(blob.size()));
  if (std::fwrite(blob.data(), 1, blob.size(), records_) != blob.size()) {
    throw ProtocolError("DiskBallotSource: short write");
  }
  offset_ += blob.size();
}

void DiskBallotSource::Builder::finish() {
  std::fclose(records_);
  records_ = nullptr;
  finished_ = true;
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (!out) throw ProtocolError("cannot create " + path_);
  auto write_u64 = [&](std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    std::fwrite(b, 1, 8, out);
  };
  auto write_u32 = [&](std::uint32_t v) {
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    std::fwrite(b, 1, 4, out);
  };
  write_u64(0xdde305b411075001ull);  // magic
  write_u64(index_.size());
  for (const auto& [serial, offset, len] : index_) {
    write_u64(serial);
    write_u64(offset);
    write_u32(len);
  }
  // Append record blobs.
  std::FILE* rec = std::fopen((path_ + ".records.tmp").c_str(), "rb");
  if (!rec) throw ProtocolError("missing records temp file");
  std::vector<std::uint8_t> buf(1 << 16);
  std::size_t got;
  while ((got = std::fread(buf.data(), 1, buf.size(), rec)) > 0) {
    std::fwrite(buf.data(), 1, got, out);
  }
  std::fclose(rec);
  std::fclose(out);
  std::remove((path_ + ".records.tmp").c_str());
}

void DiskBallotSource::build(const std::string& path,
                             const std::vector<VcBallotInit>& ballots) {
  Builder b(path);
  for (const auto& ballot : ballots) b.add(ballot);
  b.finish();
}

DiskBallotSource::DiskBallotSource(const std::string& path,
                                   std::size_t cache_pages,
                                   std::size_t read_handles) {
  std::size_t n = std::max<std::size_t>(read_handles, 1);
  std::size_t per_stripe = std::max<std::size_t>(cache_pages / n, 4);
  stripes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Stripe>();
    s->file = std::fopen(path.c_str(), "rb");
    if (!s->file) throw ProtocolError("cannot open " + path);
    s->cache_pages = per_stripe;
    stripes_.push_back(std::move(s));
  }
  std::FILE* f = stripes_[0]->file;
  std::uint8_t hdr[16];
  if (std::fread(hdr, 1, 16, f) != 16) {
    throw ProtocolError("truncated ballot file");
  }
  auto rd_u64 = [](const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
    return v;
  };
  if (rd_u64(hdr) != 0xdde305b411075001ull) {
    throw ProtocolError("bad ballot file magic");
  }
  count_ = rd_u64(hdr + 8);
  records_base_ = index_base_ + count_ * kIndexEntry;
}

DiskBallotSource::~DiskBallotSource() = default;  // Stripe closes its FILE*

DiskBallotSource::Stripe& DiskBallotSource::stripe_for(Serial serial) {
  // Fibonacci hash: serials are assigned contiguously by the EA, so a
  // plain modulus would alias with the shard interleaving.
  std::uint64_t h = serial * 0x9E3779B97F4A7C15ull;
  return *stripes_[(h >> 32) % stripes_.size()];
}

const std::uint8_t* DiskBallotSource::page(Stripe& s, std::uint64_t page_no) {
  auto it = s.cache.find(page_no);
  if (it != s.cache.end()) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    s.lru.erase(it->second.second);
    s.lru.push_front(page_no);
    it->second.second = s.lru.begin();
    return it->second.first.data();
  }
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t> data(kPageSize);
  if (std::fseek(s.file, static_cast<long>(page_no * kPageSize), SEEK_SET)) {
    throw ProtocolError("seek failed");
  }
  std::size_t got = std::fread(data.data(), 1, kPageSize, s.file);
  if (got == 0) throw ProtocolError("read past end of ballot file");
  s.lru.push_front(page_no);
  auto [ins, _] =
      s.cache.emplace(page_no, std::pair{std::move(data), s.lru.begin()});
  if (s.cache.size() > s.cache_pages) {
    s.cache.erase(s.lru.back());
    s.lru.pop_back();
  }
  return ins->second.first.data();
}

DiskBallotSource::IndexEntry DiskBallotSource::index_entry(Stripe& s,
                                                           std::size_t idx) {
  std::uint64_t byte_off = index_base_ + idx * kIndexEntry;
  std::uint8_t raw[kIndexEntry];
  // The entry may straddle a page boundary.
  for (std::size_t i = 0; i < kIndexEntry; ++i) {
    std::uint64_t off = byte_off + i;
    raw[i] = page(s, off / kPageSize)[off % kPageSize];
  }
  IndexEntry e;
  e.serial = 0;
  e.offset = 0;
  e.length = 0;
  for (int i = 7; i >= 0; --i) e.serial = e.serial << 8 | raw[i];
  for (int i = 7; i >= 0; --i) e.offset = e.offset << 8 | raw[8 + i];
  for (int i = 3; i >= 0; --i) e.length = e.length << 8 | raw[16 + i];
  return e;
}

std::optional<std::size_t> DiskBallotSource::index_of_locked(Stripe& s,
                                                             Serial serial) {
  std::size_t lo = 0, hi = count_;
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    IndexEntry e = index_entry(s, mid);
    if (e.serial == serial) return mid;
    if (e.serial < serial) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> DiskBallotSource::index_of(Serial serial) {
  Stripe& s = stripe_for(serial);
  std::scoped_lock lk(s.mu);
  return index_of_locked(s, serial);
}

Serial DiskBallotSource::serial_at(std::size_t idx) {
  if (idx >= count_) throw ProtocolError("serial_at: out of range");
  Stripe& s = *stripes_[idx % stripes_.size()];
  std::scoped_lock lk(s.mu);
  return index_entry(s, idx).serial;
}

const VcBallotInit* DiskBallotSource::find(Serial serial, VcBallotInit& buf) {
  Stripe& s = stripe_for(serial);
  std::scoped_lock lk(s.mu);
  auto idx = index_of_locked(s, serial);
  if (!idx) return nullptr;
  IndexEntry e = index_entry(s, *idx);
  std::vector<std::uint8_t> blob(e.length);
  if (std::fseek(s.file,
                 static_cast<long>(records_base_ + e.offset), SEEK_SET)) {
    throw ProtocolError("seek failed");
  }
  if (std::fread(blob.data(), 1, e.length, s.file) != e.length) {
    throw ProtocolError("truncated record");
  }
  Reader r(blob);
  buf = VcBallotInit::decode(r);
  r.expect_done();
  return &buf;
}

}  // namespace ddemos::store
