// File-backed journal storage: the Storage byte-device contract over a real
// POSIX fd, so the durability claims the crash matrix proves against
// MemStorage also cross an actual fsync boundary.
//
// The sync policy decides when written bytes become durable:
//
//   kGroupCommit   Append only writes; the explicit Sync() the Wal issues
//                  at each append boundary does ONE fsync per
//                  Wal::AppendBatch, so a batch-of-1 serve loop pays one
//                  fsync per command. A crash between the write and the
//                  sync loses the tail — which the WAL tolerates by design
//                  (an unacknowledged batch is resubmitted).
//   kPeriodic      Sync() fsyncs only when `periodic_interval` has elapsed
//                  since the last fsync; the window between fsyncs is the
//                  bound on acknowledged-but-lost work. The loosest policy,
//                  for workloads that can replay from upstream.
//
// Truncate is always durable (ftruncate + fsync) regardless of policy:
// torn-tail repair must not resurrect discarded bytes after the next
// crash. ReplaceContents is atomic: write to `<path>.replace.tmp`, fsync,
// rename over `path`, fsync the directory — a crash at any byte of the
// rewrite leaves the OLD content intact (the crash-mid-compaction rule:
// the old log wins until the rename). Open() removes a stale tmp file, so
// a crashed rewrite cannot be mistaken for the log.
//
// Threading: ALL access follows the Storage contract (externally
// serialized — a fleet service touches its WAL only from the journal stage
// and its snapshot store only from the apply stage). ReadAt consults the
// mutable size bookkeeping, so even a read of already-written bytes races
// a concurrent Append.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "journal/storage.h"

namespace lightwave::journal {

enum class SyncPolicy : std::uint8_t { kGroupCommit, kPeriodic };

/// Human-readable policy name for logs, bench output, and test messages.
const char* ToString(SyncPolicy policy);

struct FileStorageOptions {
  SyncPolicy policy = SyncPolicy::kGroupCommit;
  /// Only read under kPeriodic: minimum time between fsyncs.
  std::chrono::milliseconds periodic_interval{5};
};

class FileStorage final : public Storage {
 public:
  /// Opens (creating if absent) the file at `path` and removes any stale
  /// `.replace.tmp` beside it (a crashed ReplaceContents; the old content
  /// wins). Fails on unopenable paths, never on an empty or missing file.
  static common::Result<std::unique_ptr<FileStorage>> Open(const std::string& path,
                                                           FileStorageOptions options = {});

  /// Closes the fd after a final fsync (a clean shutdown loses nothing; a
  /// crash is modeled by never destroying the object — see FaultyStorage).
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  std::uint64_t size() const override { return size_; }
  void Append(const std::uint8_t* data, std::size_t n) override;
  void ReadAt(std::uint64_t offset, std::size_t n, std::uint8_t* out) const override;
  void Truncate(std::uint64_t new_size) override;
  void Sync() override;
  std::uint64_t durable_size() const override { return durable_size_; }
  void ReplaceContents(const std::uint8_t* data, std::size_t n) override;

  /// Unconditional fsync, ignoring the policy (ops/test hook).
  void SyncNow();

  const std::string& path() const { return path_; }
  const FileStorageOptions& options() const { return options_; }
  /// fsyncs actually issued (fdatasync/fsync on the data fd) — the cost a
  /// sync policy is tuning; bench_recovery reports it per policy.
  std::uint64_t fsync_count() const { return fsync_count_; }

 private:
  FileStorage(std::string path, int fd, std::uint64_t size, FileStorageOptions options);

  std::string path_;
  int fd_ = -1;
  FileStorageOptions options_;
  std::uint64_t size_ = 0;
  std::uint64_t durable_size_ = 0;
  std::uint64_t fsync_count_ = 0;
  std::chrono::steady_clock::time_point last_sync_;
};

/// `<path>.replace.tmp` — the side file ReplaceContents stages into. Open()
/// unlinks it; exposed so crash tests can plant a stale one.
std::string ReplaceTmpPath(const std::string& path);

}  // namespace lightwave::journal
