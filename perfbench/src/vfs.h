#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "io/vfs.h"

namespace perfbench {

/// In-process, memory-backed filesystem for result-store roots. The whole
/// store and journal stack runs through it unchanged; only the syscalls
/// are replaced, so a run neither depends on the host's disk (whose
/// latency varied ±25% run to run on shared hosts) nor writes outside the
/// benchmark's checkout. `sync` and `sync_dir` are no-ops: memory is the
/// stable storage. Thread-safe. Open handles follow the file across a
/// rename, as POSIX descriptors do.
class MemVfs : public cloudrepro::io::Vfs {
 public:
  std::unique_ptr<cloudrepro::io::WritableFile> open_write(
      const std::filesystem::path& path, cloudrepro::io::WriteMode mode) override;
  std::optional<std::string> read_file(const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  std::uintmax_t file_size(const std::filesystem::path& path) override;
  void rename(const std::filesystem::path& from,
              const std::filesystem::path& to) override;
  bool remove(const std::filesystem::path& path) override;
  std::uintmax_t remove_all(const std::filesystem::path& path) override;
  void create_directories(const std::filesystem::path& path) override;
  std::vector<std::filesystem::path> list_dir(
      const std::filesystem::path& path) override;
  void truncate(const std::filesystem::path& path, std::uintmax_t size) override;
  void sync_dir(const std::filesystem::path& path) override;

  /// Total size of the files held, in bytes: memory the benchmark's store
  /// takes, which the process's RSS includes.
  std::uintmax_t bytes() const;

 private:
  friend class MemFile;
  using Content = std::shared_ptr<std::string>;

  mutable std::mutex mu_;
  std::map<std::filesystem::path, Content> files_;  ///< Guarded by mu_.
  std::set<std::filesystem::path> dirs_;            ///< Guarded by mu_.
};

/// Operation counts and busy time of every call through a `CountingVfs`.
struct IoCounts {
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;  ///< File and directory syncs.
  std::uint64_t reads = 0;  ///< Whole-file reads.
  double busy_s = 0.0;      ///< Wall time inside the wrapped filesystem, every op.

  IoCounts operator-(const IoCounts& base) const;
};

/// Counting and timing decorator over another `Vfs`: the benchmark's view
/// of the io layer. Attached through `ResultStore`'s and
/// `RunOptions::vfs`'s seams in the traced run only.
class CountingVfs : public cloudrepro::io::Vfs {
 public:
  explicit CountingVfs(cloudrepro::io::Vfs& inner) : inner_(inner) {}

  IoCounts counts() const;

  std::unique_ptr<cloudrepro::io::WritableFile> open_write(
      const std::filesystem::path& path, cloudrepro::io::WriteMode mode) override;
  std::optional<std::string> read_file(const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  std::uintmax_t file_size(const std::filesystem::path& path) override;
  void rename(const std::filesystem::path& from,
              const std::filesystem::path& to) override;
  bool remove(const std::filesystem::path& path) override;
  std::uintmax_t remove_all(const std::filesystem::path& path) override;
  void create_directories(const std::filesystem::path& path) override;
  std::vector<std::filesystem::path> list_dir(
      const std::filesystem::path& path) override;
  void truncate(const std::filesystem::path& path, std::uintmax_t size) override;
  void sync_dir(const std::filesystem::path& path) override;

 private:
  friend class CountingFile;
  /// Runs `op` against the inner filesystem, charging its wall time, and one
  /// count to `counter` when given.
  template <typename Op>
  auto timed(std::atomic<std::uint64_t>* counter, Op&& op);

  cloudrepro::io::Vfs& inner_;
  std::atomic<std::uint64_t> appends_{0}, syncs_{0}, reads_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace perfbench
