#include "journal/file_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace lightwave::journal {

namespace {

/// Full-coverage pwrite: POSIX may write short; the storage contract may
/// not. Disk-level failure (ENOSPC, EIO) is fatal here — the journal has
/// no way to un-acknowledge state it already applied.
void PwriteAll(int fd, const std::uint8_t* data, std::size_t n, std::uint64_t offset) {
  while (n > 0) {
    const ssize_t wrote = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      LW_CHECK(false) << "pwrite failed: " << std::strerror(errno);
      return;
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
    offset += static_cast<std::uint64_t>(wrote);
  }
}

void FsyncOrDie(int fd, const char* what) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  LW_CHECK(rc == 0) << what << " fsync failed: " << std::strerror(errno);
}

/// fsync on the parent directory publishes a rename durably (POSIX leaves
/// the entry update volatile until the directory itself is synced).
void FsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  LW_CHECK(dir_fd >= 0) << "open dir " << dir << " failed: " << std::strerror(errno);
  FsyncOrDie(dir_fd, "directory");
  ::close(dir_fd);
}

}  // namespace

const char* ToString(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kGroupCommit: return "group_commit";
    case SyncPolicy::kPeriodic: return "periodic";
  }
  return "unknown";
}

std::string ReplaceTmpPath(const std::string& path) { return path + ".replace.tmp"; }

common::Result<std::unique_ptr<FileStorage>> FileStorage::Open(const std::string& path,
                                                               FileStorageOptions options) {
  // Crash-mid-ReplaceContents rule: a tmp file that never got renamed is a
  // dead rewrite; the old content at `path` wins. Remove it so nothing can
  // confuse it for the log later.
  ::unlink(ReplaceTmpPath(path).c_str());
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return common::Internal("open " + path + " failed: " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return common::Internal("fstat " + path + " failed: " + err);
  }
  return std::unique_ptr<FileStorage>(
      new FileStorage(path, fd, static_cast<std::uint64_t>(st.st_size), options));
}

FileStorage::FileStorage(std::string path, int fd, std::uint64_t size,
                         FileStorageOptions options)
    : path_(std::move(path)),
      fd_(fd),
      options_(options),
      size_(size),
      // Bytes that survived into this open are durable by definition: the
      // previous process is gone and they are still here.
      durable_size_(size),
      last_sync_(std::chrono::steady_clock::now()) {}

FileStorage::~FileStorage() {
  if (fd_ < 0) return;
  if (durable_size_ < size_) FsyncOrDie(fd_, path_.c_str());
  ::close(fd_);
}

void FileStorage::Append(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  PwriteAll(fd_, data, n, size_);
  size_ += n;
}

void FileStorage::ReadAt(std::uint64_t offset, std::size_t n, std::uint8_t* out) const {
  LW_DCHECK(offset <= size_ && n <= size_ - offset)
      << "ReadAt [" << offset << ", " << offset + n << ") out of range (size " << size_
      << ")";
  if (offset > size_ || n > size_ - offset) return;
  while (n > 0) {
    const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      LW_CHECK(false) << "pread failed: " << std::strerror(errno);
      return;
    }
    LW_CHECK(got > 0) << "pread hit EOF inside [0, size): file shrank underneath us";
    out += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
}

void FileStorage::Truncate(std::uint64_t new_size) {
  LW_CHECK(new_size <= size_) << "Truncate to " << new_size
                              << " would grow the device (size " << size_
                              << "); growing is not supported";
  if (new_size >= size_) return;
  int rc;
  do {
    rc = ::ftruncate(fd_, static_cast<off_t>(new_size));
  } while (rc != 0 && errno == EINTR);
  LW_CHECK(rc == 0) << "ftruncate failed: " << std::strerror(errno);
  size_ = new_size;
  // Truncation is durable under every policy: torn-tail repair must not
  // resurrect after the next crash.
  SyncNow();
}

void FileStorage::Sync() {
  if (durable_size_ == size_) return;
  if (options_.policy == SyncPolicy::kPeriodic) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_sync_ < options_.periodic_interval) return;
  }
  SyncNow();
}

void FileStorage::SyncNow() {
  FsyncOrDie(fd_, path_.c_str());
  ++fsync_count_;
  durable_size_ = size_;
  last_sync_ = std::chrono::steady_clock::now();
}

void FileStorage::ReplaceContents(const std::uint8_t* data, std::size_t n) {
  const std::string tmp = ReplaceTmpPath(path_);
  const int tmp_fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  LW_CHECK(tmp_fd >= 0) << "open " << tmp << " failed: " << std::strerror(errno);
  if (n > 0) PwriteAll(tmp_fd, data, n, 0);
  FsyncOrDie(tmp_fd, tmp.c_str());
  // The atomic commit point. Before it the old file is untouched (a crash
  // leaves the stale tmp for Open() to discard); after it the new content
  // is the file, and the directory fsync makes the swap itself durable.
  LW_CHECK(::rename(tmp.c_str(), path_.c_str()) == 0)
      << "rename " << tmp << " -> " << path_ << " failed: " << std::strerror(errno);
  FsyncParentDir(path_);
  ::close(fd_);
  fd_ = tmp_fd;
  size_ = n;
  durable_size_ = n;
  ++fsync_count_;
  last_sync_ = std::chrono::steady_clock::now();
}

}  // namespace lightwave::journal
