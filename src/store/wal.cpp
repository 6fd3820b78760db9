#include "store/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/codec.hpp"

namespace ddemos::store {
namespace {

constexpr std::uint32_t kWalMagic = 0x4C415744;  // "DWAL"
constexpr std::uint32_t kWalVersion = 1;
constexpr std::size_t kFileHeader = 8;           // magic + version
constexpr std::size_t kRecordHeader = 5;         // u32 len + u8 type
constexpr std::size_t kRecordTrailer = 4;        // u32 crc
// A single record cannot exceed this; larger lengths in a header are
// treated as frame damage, not as a request to allocate gigabytes.
constexpr std::uint32_t kMaxRecordPayload = 1u << 30;

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
         (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = std::uint8_t(v);
  p[1] = std::uint8_t(v >> 8);
  p[2] = std::uint8_t(v >> 16);
  p[3] = std::uint8_t(v >> 24);
}

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw WalError(path + ": " + what + ": " + std::strerror(errno));
}

}  // namespace

std::uint32_t crc32c(BytesView data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Wal::Wal(std::string path, WalOptions opt)
    : path_(std::move(path)), opt_(opt) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) fail(path_, "open");
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

void Wal::write_all(int fd, BytesView data, const char* what) const {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(path_, what);
    }
    off += static_cast<std::size_t>(n);
  }
}

void Wal::fsync_fd(int fd, const char* what) const {
  if (::fsync(fd) != 0) fail(path_, what);
}

Bytes Wal::frame(std::uint8_t type, BytesView payload) {
  Bytes out(kRecordHeader + payload.size() + kRecordTrailer);
  put_u32le(out.data(), static_cast<std::uint32_t>(payload.size()));
  out[4] = type;
  // An empty payload may carry a null data pointer, which memcpy forbids.
  if (!payload.empty()) {
    std::memcpy(out.data() + kRecordHeader, payload.data(), payload.size());
  }
  std::uint32_t crc =
      crc32c(BytesView(out.data(), kRecordHeader + payload.size()));
  put_u32le(out.data() + kRecordHeader + payload.size(), crc);
  return out;
}

WalReplayResult Wal::replay(
    const std::function<void(std::uint8_t, BytesView)>& fn) {
  if (replayed_) throw WalError(path_ + ": replay called twice");
  replayed_ = true;

  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) fail(path_, "lseek");
  Bytes file(static_cast<std::size_t>(size));
  if (size > 0) {
    if (::lseek(fd_, 0, SEEK_SET) < 0) fail(path_, "lseek");
    std::size_t off = 0;
    while (off < file.size()) {
      ssize_t n = ::read(fd_, file.data() + off, file.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail(path_, "read");
      }
      if (n == 0) fail(path_, "short read");
      off += static_cast<std::size_t>(n);
    }
  }

  WalReplayResult res;
  std::size_t pos = 0;

  auto truncate_at = [&](std::size_t at) {
    res.torn_tail = true;
    res.truncated_bytes = file.size() - at;
    if (::ftruncate(fd_, static_cast<off_t>(at)) != 0)
      fail(path_, "ftruncate");
    if (::lseek(fd_, static_cast<off_t>(at), SEEK_SET) < 0)
      fail(path_, "lseek");
  };

  if (file.empty()) {
    // Fresh log: stamp the file header.
    std::uint8_t hdr[kFileHeader];
    put_u32le(hdr, kWalMagic);
    put_u32le(hdr + 4, kWalVersion);
    write_all(fd_, BytesView(hdr, kFileHeader), "write header");
    return res;
  }
  if (file.size() < kFileHeader) {
    // The process died inside the very first header write.
    truncate_at(0);
    std::uint8_t hdr[kFileHeader];
    put_u32le(hdr, kWalMagic);
    put_u32le(hdr + 4, kWalVersion);
    write_all(fd_, BytesView(hdr, kFileHeader), "write header");
    return res;
  }
  if (get_u32le(file.data()) != kWalMagic)
    throw WalError(path_ + ": bad WAL magic (not a ddemos WAL file)");
  if (get_u32le(file.data() + 4) != kWalVersion)
    throw WalError(path_ + ": unsupported WAL format version " +
                   std::to_string(get_u32le(file.data() + 4)));
  pos = kFileHeader;

  while (pos < file.size()) {
    std::size_t start = pos;
    if (file.size() - pos < kRecordHeader) {
      truncate_at(start);  // torn mid-header
      return res;
    }
    std::uint32_t len = get_u32le(file.data() + pos);
    std::uint8_t type = file[pos + 4];
    std::size_t frame_size = kRecordHeader + std::size_t(len) + kRecordTrailer;
    if (len > kMaxRecordPayload || file.size() - start < frame_size) {
      // The frame claims more bytes than the file holds (or an absurd
      // length from a torn header write): a torn tail either way, because
      // nothing after an incomplete frame can be trusted to align.
      truncate_at(start);
      return res;
    }
    BytesView payload(file.data() + start + kRecordHeader, len);
    std::uint32_t want = get_u32le(file.data() + start + kRecordHeader + len);
    std::uint32_t got =
        crc32c(BytesView(file.data() + start, kRecordHeader + len));
    if (want != got) {
      // A complete frame with a bad checksum is corruption, not a torn
      // write (torn writes leave short frames): fail closed so recovery
      // never proceeds from silently damaged state.
      throw WalError(path_ + ": CRC mismatch in record " +
                     std::to_string(res.records) + " at byte offset " +
                     std::to_string(start) + " (stored " +
                     std::to_string(want) + ", computed " +
                     std::to_string(got) + ")");
    }
    fn(type, payload);
    ++res.records;
    pos = start + frame_size;
  }
  records_ = res.records;
  if (::lseek(fd_, static_cast<off_t>(pos), SEEK_SET) < 0) fail(path_, "lseek");
  return res;
}

void Wal::maybe_sync() {
  switch (opt_.fsync) {
    case FsyncPolicy::kNever:
      break;
    case FsyncPolicy::kAlways:
      fsync_fd(fd_, "fsync");
      unsynced_ = 0;
      break;
    case FsyncPolicy::kInterval:
      if (unsynced_ >= std::max<std::size_t>(1, opt_.fsync_interval)) {
        fsync_fd(fd_, "fsync");
        unsynced_ = 0;
      }
      break;
  }
}

void Wal::append(std::uint8_t type, BytesView payload) {
  Bytes rec = frame(type, payload);
  std::scoped_lock lk(mu_);
  if (!replayed_) throw WalError(path_ + ": append before replay");
  write_all(fd_, rec, "append");
  ++records_;
  ++unsynced_;
  maybe_sync();
}

void Wal::sync() {
  std::scoped_lock lk(mu_);
  if (fd_ >= 0) {
    fsync_fd(fd_, "fsync");
    unsynced_ = 0;
  }
}

void Wal::snapshot(std::uint8_t type, BytesView payload) {
  std::scoped_lock lk(mu_);
  if (!replayed_) throw WalError(path_ + ": snapshot before replay");
  std::string tmp = path_ + ".tmp";
  int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tfd < 0) fail(tmp, "open");
  std::uint8_t hdr[kFileHeader];
  put_u32le(hdr, kWalMagic);
  put_u32le(hdr + 4, kWalVersion);
  write_all(tfd, BytesView(hdr, kFileHeader), "write snapshot header");
  write_all(tfd, frame(type, payload), "write snapshot");
  // The snapshot is always fsynced before the rename regardless of policy:
  // compaction replaces history, so the new file must be durable before
  // the old one becomes unreachable.
  fsync_fd(tfd, "fsync snapshot");
  ::close(tfd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) fail(path_, "rename");
  // Persist the rename itself.
  std::string dir = path_;
  std::size_t slash = dir.find_last_of('/');
  dir = (slash == std::string::npos) ? "." : dir.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);  // best-effort; some filesystems reject directory fsync
    ::close(dfd);
  }
  // Swing the live fd to the new file, positioned at its end.
  int nfd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (nfd < 0) fail(path_, "reopen");
  if (::lseek(nfd, 0, SEEK_END) < 0) fail(path_, "lseek");
  ::close(fd_);
  fd_ = nfd;
  records_ = 1;
  unsynced_ = 0;
}

}  // namespace ddemos::store
