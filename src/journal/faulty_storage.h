// Crash-realistic failure injection over any Storage: models what a real
// power cut does to a file — the synced prefix survives, the unsynced tail
// vanishes, and the final in-flight append may tear at ANY byte. The
// wrapper tracks its own durable frontier (advanced per its sync mode, not
// the base device's — so the crash matrix can model kGroupCommit/kPeriodic
// semantics deterministically over MemStorage or FileStorage alike) and
// applies the damage through the base device's own durable Truncate, after
// which recovery opens the base exactly as it would after a genuine crash.
//
//   FaultyStorage faulty(base, FaultyStorage::SyncMode::kOnSync);
//   Wal wal(faulty);                      // serve path writes through it
//   ... appends, syncs ...
//   faulty.CrashTearingFinalAppend(k);    // power cut k bytes into the tail
//   Wal recovered(base);                  // recovery sees the torn log
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "journal/storage.h"

namespace lightwave::journal {

class FaultyStorage final : public Storage {
 public:
  /// When the wrapper's durable frontier advances:
  ///   kOnSync    a Sync() call makes everything written durable (the
  ///              fsync-at-the-Wal-boundary of kGroupCommit);
  ///   kNever     syncs are ignored — models the open kPeriodic window,
  ///              where a crash can take back everything since the last
  ///              real fsync.
  enum class SyncMode : std::uint8_t { kOnSync, kNever };

  explicit FaultyStorage(Storage& base, SyncMode mode = SyncMode::kOnSync)
      : base_(base), mode_(mode), frontier_(base.size()) {}

  std::uint64_t size() const override { return base_.size(); }

  void Append(const std::uint8_t* data, std::size_t n) override {
    last_append_offset_ = base_.size();
    last_append_bytes_ = n;
    base_.Append(data, n);
  }

  void ReadAt(std::uint64_t offset, std::size_t n, std::uint8_t* out) const override {
    base_.ReadAt(offset, n, out);
  }

  void Truncate(std::uint64_t new_size) override {
    base_.Truncate(new_size);
    // Truncation is durable by contract; nothing above it can survive.
    frontier_ = std::min(frontier_, new_size);
    last_append_offset_ = std::min(last_append_offset_, new_size);
    last_append_bytes_ = 0;
  }

  void Sync() override {
    base_.Sync();
    if (mode_ != SyncMode::kNever) frontier_ = base_.size();
  }

  std::uint64_t durable_size() const override { return frontier_; }

  void ReplaceContents(const std::uint8_t* data, std::size_t n) override {
    base_.ReplaceContents(data, n);
    // Atomic + durable by contract: the whole new content survives.
    frontier_ = n;
    last_append_offset_ = n;
    last_append_bytes_ = 0;
  }

  /// Power cut between appends: the unsynced tail vanishes, the durable
  /// prefix survives. The base device is left exactly as a post-crash open
  /// would find it.
  void Crash() { base_.Truncate(frontier_); }

  /// Power cut mid-append: keeps `keep_bytes` of the final append (clamped
  /// to its length) and drops the rest — but never below the durable
  /// frontier, which no crash can take back. keep_bytes == 0 drops the
  /// whole in-flight append; sweeping it over [0, final_append_bytes()]
  /// tears the tail at every byte.
  void CrashTearingFinalAppend(std::uint64_t keep_bytes) {
    const std::uint64_t kept =
        last_append_offset_ + std::min(keep_bytes, last_append_bytes_);
    base_.Truncate(std::max(frontier_, kept));
  }

  std::uint64_t final_append_bytes() const { return last_append_bytes_; }
  Storage& base() { return base_; }

 private:
  Storage& base_;
  SyncMode mode_;
  /// The wrapper's own durable frontier (see SyncMode).
  std::uint64_t frontier_ = 0;
  std::uint64_t last_append_offset_ = 0;
  std::uint64_t last_append_bytes_ = 0;
};

}  // namespace lightwave::journal
