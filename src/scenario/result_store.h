#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.h"

namespace cloudrepro::io {
class Vfs;
}  // namespace cloudrepro::io

namespace cloudrepro::obs {
class MetricsRegistry;
}  // namespace cloudrepro::obs

namespace cloudrepro::scenario {

/// Version of the *measurement semantics*: what a stored value means and
/// how it was produced (engine, simulator, campaign seed derivation). Bump
/// whenever a change makes previously cached measurements non-reproducible
/// by the current code — old entries then never match, and the cache
/// lifecycle ages them out.
inline constexpr int kResultSchemaVersion = 1;

/// Held while a process executes a cache entry's campaign: the single-flight
/// token of the lock-file protocol. Bool-convertible (false = not acquired).
/// Releasing removes the lock file; a crash leaves it behind, and the next
/// `try_lock` steals it once the holder is provably dead.
class EntryLock {
 public:
  EntryLock() = default;
  EntryLock(EntryLock&& other) noexcept;
  EntryLock& operator=(EntryLock&& other) noexcept;
  EntryLock(const EntryLock&) = delete;
  EntryLock& operator=(const EntryLock&) = delete;
  ~EntryLock();

  explicit operator bool() const noexcept { return vfs_ != nullptr; }
  /// Removes the lock file. Never throws: on a (simulated or real) crash
  /// the file legitimately survives for the staleness protocol to reap.
  void release() noexcept;

 private:
  friend class ResultStore;
  EntryLock(io::Vfs* vfs, std::filesystem::path path);

  io::Vfs* vfs_ = nullptr;
  std::filesystem::path path_;
};

struct ResultStoreOptions {
  /// LRU byte budget enforced by `enforce_budget`; 0 = unbounded.
  std::uintmax_t max_bytes = 0;
};

/// On-disk content-addressed cache of scenario results, keyed by
/// (scenario content hash, seed, result schema version). One directory per
/// key:
///
///   <root>/<hash>-s<seed>-v<version>/
///     scenario.json   canonical spec, for humans and debugging
///     journal.jsonl   the campaign journal (checksummed records) — *is*
///                     the partial-hit state; resuming through it reuses
///                     completed measurements
///     summary.json    canonical summary, fsynced then renamed into place
///                     only when complete — its presence is what makes an
///                     entry a full hit
///     lock            held (exclusive-create, pid inside) while a process
///                     executes this entry's campaign
///     last-used       logical LRU clock value, advanced on every access
///   <root>/clock      the logical clock the LRU ordering derives from
///
/// All I/O goes through an `io::Vfs`, so every durability claim here is
/// exercised by the crash-torture harness under `io::FaultVfs`.
///
/// Counters (when a MetricsRegistry is attached):
///   scenario.cache.hit / .partial / .miss     one per `lookup`
///   scenario.cache.evictions                  entries removed
///   scenario.cache.evicted_bytes              bytes those entries held
///   scenario.cache.lock_contention            try_lock lost to a live holder
///   scenario.cache.lock_stolen                stale (dead-holder) lock reaped
///   scenario.cache.read_through               served a summary published by
///                                             the concurrent lock holder
///   scenario.cache.corrupt_summaries          summary failed validation and
///                                             the entry was evicted
/// Gauge:
///   scenario.cache.bytes                      total cache size after the
///                                             last budget enforcement
class ResultStore {
 public:
  using Options = ResultStoreOptions;

  explicit ResultStore(std::filesystem::path root,
                       obs::MetricsRegistry* metrics = nullptr,
                       io::Vfs* vfs = nullptr, Options options = {});

  enum class HitState { kMiss, kPartial, kHit };
  static const char* to_string(HitState state) noexcept;

  struct Lookup {
    HitState state = HitState::kMiss;
    /// Journal measurements available for reuse (== total when complete).
    std::size_t cached_measurements = 0;
    std::size_t total_measurements = 0;
    std::filesystem::path dir;
  };

  /// Classifies the entry, bumps the corresponding cache counter, and
  /// freshens the entry's LRU clock on a hit or partial.
  Lookup lookup(const ScenarioSpec& spec, std::uint64_t seed);
  /// Same classification without touching counters or the clock (stats,
  /// tests).
  Lookup peek(const ScenarioSpec& spec, std::uint64_t seed) const;

  /// Directory name for (content hash, seed): <hash>-s<seed>-v<version>.
  /// The key-taking methods below address an entry by it, so a caller that
  /// already holds the spec's hash (a server's registry index) never hashes
  /// the spec again. A spec-taking method with a key-taking form delegates
  /// to it through `entry_key(spec, seed)`.
  static std::string entry_key(std::string_view hash, std::uint64_t seed);
  /// `entry_key(spec.content_hash(), seed)`: one canonical-JSON SHA-256.
  std::string entry_key(const ScenarioSpec& spec, std::uint64_t seed) const;

  std::filesystem::path entry_dir(const std::string& key) const;
  std::filesystem::path entry_dir(const ScenarioSpec& spec, std::uint64_t seed) const;
  std::filesystem::path journal_path(const ScenarioSpec& spec, std::uint64_t seed) const;
  std::filesystem::path summary_path(const std::string& key) const;
  std::filesystem::path summary_path(const ScenarioSpec& spec, std::uint64_t seed) const;

  /// Creates the entry directory (and `scenario.json` if absent) and
  /// returns the journal path for `CampaignOptions::journal_path`.
  std::filesystem::path prepare(const ScenarioSpec& spec, std::uint64_t seed);

  bool has_summary(const std::string& key) const;
  bool has_summary(const ScenarioSpec& spec, std::uint64_t seed) const;
  /// Exact bytes written by `write_summary`; nullopt when absent. No
  /// validation — pair with `read_summary_checked` when serving cache hits.
  std::optional<std::string> read_summary(const ScenarioSpec& spec,
                                          std::uint64_t seed) const;
  /// `read_summary` plus integrity validation: non-empty, one line (a
  /// canonical summary has no raw newline, and servers splice the stored
  /// bytes into newline-framed responses), and `Json::valid` — accepted by
  /// the parser, checked without building the tree. A corrupt summary
  /// — possible only through external damage or a hand edit, since
  /// publication is fsync-then-rename — is removed (the journal stays, so
  /// the re-run resumes), bumps scenario.cache.corrupt_summaries, and
  /// returns nullopt so the caller re-runs instead of serving garbage.
  std::optional<std::string> read_summary_checked(const std::string& key);
  std::optional<std::string> read_summary_checked(const ScenarioSpec& spec,
                                                  std::uint64_t seed);
  /// A served cache hit: `read_summary_checked(key)` and, when it returns
  /// bytes, the LRU freshening of `touch` — without touch's existence
  /// probe, which the summary just read already answered. Bumps no
  /// scenario.cache.* admission counter.
  std::optional<std::string> fetch_summary(const std::string& key);
  /// Atomically publishes the summary, completing the entry. Durability
  /// order: write tmp, fsync tmp, rename into place, fsync directory — a
  /// crash anywhere leaves either no summary (entry stays partial,
  /// journal resumes) or the complete summary, never a torn one.
  void write_summary(const ScenarioSpec& spec, std::uint64_t seed,
                     std::string_view summary);

  /// Freshens the entry's LRU clock without classifying it or bumping any
  /// cache counter (scenario.cache.* keep meaning "campaign admissions"),
  /// as `fetch_summary` does for a served hit, so served entries stay
  /// budget-resident. No-op when the entry does not exist.
  void touch(const std::string& key);
  void touch(const ScenarioSpec& spec, std::uint64_t seed);

  /// Single-flight: acquires the entry's lock file, stealing it from a
  /// provably dead holder (recorded pid no longer alive; for this process's
  /// own pid, a crashed earlier incarnation is recognized by the lock not
  /// being registered as held). Returns a false lock when a live holder has
  /// it — callers poll `has_summary` and re-try (bounded) to read through.
  EntryLock try_lock(const ScenarioSpec& spec, std::uint64_t seed);

  /// Counter hooks for the single-flight loop in the runner.
  void note_lock_wait();
  void note_read_through();

  struct EntryInfo {
    std::string key;  ///< Directory name: <hash>-s<seed>-v<version>.
    bool complete = false;
    std::size_t journal_measurements = 0;
    std::uintmax_t bytes = 0;
    std::uint64_t last_used = 0;    ///< Logical LRU clock; 0 = never touched.
    bool current_schema = false;    ///< Key suffix matches kResultSchemaVersion.
    bool locked = false;            ///< A lock file is present (may be stale).
  };
  /// All entries under the root, key-sorted.
  std::vector<EntryInfo> entries() const;

  /// Enforces `Options::max_bytes`: ages out every stale-schema entry, then
  /// evicts current-schema entries in LRU order until the cache fits. Never
  /// evicts `protect_key` (the in-flight entry) or an entry whose lock has
  /// a live holder. No-op when max_bytes is 0. Returns entries evicted.
  std::size_t enforce_budget(const std::string& protect_key = {});

  struct VerifyReport {
    std::string key;
    bool ok = true;
    std::string note;  ///< Problem description, or informational detail.
  };
  /// Integrity-checks every entry: scenario.json must be `Json::valid`,
  /// summary.json must pass the checked read's rule (non-empty, one line,
  /// `Json::valid`); journal records must pass their checksums. A torn
  /// journal tail is reported in `note` but stays `ok` — resume heals it.
  std::vector<VerifyReport> verify() const;

  /// Removes one entry; returns the number removed (0 or 1).
  std::size_t evict(const ScenarioSpec& spec, std::uint64_t seed);
  /// Removes every entry; returns the number removed.
  std::size_t clear();

  const std::filesystem::path& root() const noexcept { return root_; }
  const Options& options() const noexcept { return options_; }
  /// The filesystem every entry file goes through; journals written for
  /// this store must use it too.
  io::Vfs& vfs() const noexcept { return *vfs_; }

 private:
  void count(const char* which, double delta = 1.0) const;
  /// Advances the logical clock and stamps the entry's last-used file.
  /// Best-effort: an I/O error here (e.g. ENOSPC) never fails the lookup.
  void touch_entry(const std::filesystem::path& dir);
  std::uint64_t last_used(const std::filesystem::path& dir) const;
  std::uintmax_t entry_bytes(const std::filesystem::path& dir) const;
  /// Counts intact measurement records in a journal (adaptive stop records
  /// are skipped, not counted). When `valid_lines` is non-null it receives
  /// the count of intact record lines of *any* kind, for torn-tail checks.
  std::size_t count_journal_measurements(const std::filesystem::path& path,
                                         std::size_t* valid_lines = nullptr) const;
  std::size_t remove_entry(const std::filesystem::path& dir);

  std::filesystem::path root_;
  obs::MetricsRegistry* metrics_;
  io::Vfs* vfs_;
  Options options_;
};

}  // namespace cloudrepro::scenario
