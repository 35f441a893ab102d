#include "scenario/result_store.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "core/journal.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "scenario/json.h"

namespace cloudrepro::scenario {

namespace {

/// Lock paths currently held by this process. A lock file whose recorded
/// pid is our own but which is *not* in this set belongs to a crashed
/// earlier incarnation (the crash-torture harness restarts in-process) and
/// is stealable; one that *is* in the set is held by another thread.
std::mutex g_held_locks_mu;
std::set<std::string> g_held_locks;

void register_held(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{g_held_locks_mu};
  g_held_locks.insert(path.string());
}

void unregister_held(const std::filesystem::path& path) noexcept {
  try {
    std::lock_guard<std::mutex> lock{g_held_locks_mu};
    g_held_locks.erase(path.string());
  } catch (...) {
  }
}

bool is_registered_held(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{g_held_locks_mu};
  return g_held_locks.count(path.string()) > 0;
}

/// Is the recorded lock holder provably alive? Unparseable content counts
/// as dead (a torn lock write can only come from a crash mid-acquisition).
/// The record is only trusted when newline-terminated: a crash can tear
/// "pid 12345\n" down to "pid 1", which would otherwise misread as a
/// *different* — possibly live — pid and wedge every future acquirer.
bool holder_alive(const std::string& contents, const std::filesystem::path& lock_path) {
  if (contents.compare(0, 4, "pid ") != 0) return false;
  char* end = nullptr;
  const long pid = std::strtol(contents.c_str() + 4, &end, 10);
  if (end == contents.c_str() + 4 || pid <= 0 || *end != '\n') return false;
  if (pid == static_cast<long>(::getpid())) return is_registered_held(lock_path);
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/// Parses `<64-hex>-s<digits>-v<digits>`; filters out non-entry names like
/// the root's `clock` file and recovers the schema version for age-out.
bool parse_entry_key(const std::string& key, int& schema_version) {
  if (key.size() < 64 + 2 + 1 + 2 + 1) return false;
  for (std::size_t i = 0; i < 64; ++i) {
    if (!std::isxdigit(static_cast<unsigned char>(key[i]))) return false;
  }
  if (key.compare(64, 2, "-s") != 0) return false;
  std::size_t pos = 66;
  const std::size_t seed_start = pos;
  while (pos < key.size() && std::isdigit(static_cast<unsigned char>(key[pos]))) ++pos;
  if (pos == seed_start) return false;
  if (key.compare(pos, 2, "-v") != 0) return false;
  pos += 2;
  const std::size_t version_start = pos;
  while (pos < key.size() && std::isdigit(static_cast<unsigned char>(key[pos]))) ++pos;
  if (pos == version_start || pos != key.size()) return false;
  schema_version = std::atoi(key.c_str() + version_start);
  return true;
}

/// What a servable summary.json must be: non-empty, one line, and
/// `Json::valid` (parses, checked without building a tree). The newline rule
/// is what lets a server splice the stored bytes into a one-line response
/// frame; only a hand edit (a pretty-printed summary) can break it.
bool summary_intact(const std::string& text) {
  return !text.empty() && text.find('\n') == std::string::npos && Json::valid(text);
}

}  // namespace

EntryLock::EntryLock(io::Vfs* vfs, std::filesystem::path path)
    : vfs_(vfs), path_(std::move(path)) {}

EntryLock::EntryLock(EntryLock&& other) noexcept
    : vfs_(other.vfs_), path_(std::move(other.path_)) {
  other.vfs_ = nullptr;
}

EntryLock& EntryLock::operator=(EntryLock&& other) noexcept {
  if (this != &other) {
    release();
    vfs_ = other.vfs_;
    path_ = std::move(other.path_);
    other.vfs_ = nullptr;
  }
  return *this;
}

EntryLock::~EntryLock() { release(); }

void EntryLock::release() noexcept {
  if (!vfs_) return;
  unregister_held(path_);
  try {
    vfs_->remove(path_);
  } catch (...) {
    // A (simulated) crash mid-release leaves the file for staleness reaping
    // — exactly what a real crash would do.
  }
  vfs_ = nullptr;
}

ResultStore::ResultStore(std::filesystem::path root, obs::MetricsRegistry* metrics,
                         io::Vfs* vfs, Options options)
    : root_(std::move(root)),
      metrics_(metrics),
      vfs_(vfs ? vfs : &io::real_vfs()),
      options_(options) {}

const char* ResultStore::to_string(HitState state) noexcept {
  switch (state) {
    case HitState::kMiss: return "miss";
    case HitState::kPartial: return "partial";
    case HitState::kHit: return "hit";
  }
  return "?";
}

void ResultStore::count(const char* which, double delta) const {
  if (metrics_) metrics_->counter(which).add(delta);
}

std::string ResultStore::entry_key(std::string_view hash, std::uint64_t seed) {
  std::string key{hash};
  key += "-s" + std::to_string(seed) + "-v" + std::to_string(kResultSchemaVersion);
  return key;
}

std::string ResultStore::entry_key(const ScenarioSpec& spec,
                                   std::uint64_t seed) const {
  return entry_key(spec.content_hash(), seed);
}

std::filesystem::path ResultStore::entry_dir(const std::string& key) const {
  return root_ / key;
}

std::filesystem::path ResultStore::entry_dir(const ScenarioSpec& spec,
                                             std::uint64_t seed) const {
  return entry_dir(entry_key(spec, seed));
}

std::filesystem::path ResultStore::journal_path(const ScenarioSpec& spec,
                                                std::uint64_t seed) const {
  return entry_dir(spec, seed) / "journal.jsonl";
}

std::filesystem::path ResultStore::summary_path(const std::string& key) const {
  return entry_dir(key) / "summary.json";
}

std::filesystem::path ResultStore::summary_path(const ScenarioSpec& spec,
                                                std::uint64_t seed) const {
  return summary_path(entry_key(spec, seed));
}

std::size_t ResultStore::count_journal_measurements(
    const std::filesystem::path& path, std::size_t* valid_lines) const {
  if (valid_lines) *valid_lines = 0;
  const auto contents = vfs_->read_file(path);
  if (!contents || contents->empty()) return 0;
  const auto header_end = contents->find('\n');
  if (header_end == std::string::npos) return 0;
  std::size_t offset = header_end + 1;
  std::size_t measurements = 0;
  while (offset < contents->size()) {
    const auto line_end = contents->find('\n', offset);
    if (line_end == std::string::npos) break;  // Torn tail: not reusable.
    core::JournalRecord record;
    if (!core::parse_journal_line(contents->substr(offset, line_end - offset),
                                  record)) {
      break;  // Corrupt record: the tail truncates on resume.
    }
    // Adaptive stop records are decisions, not measurements.
    if (record.kind == core::JournalRecord::Kind::kValue) ++measurements;
    if (valid_lines) ++*valid_lines;
    offset = line_end + 1;
  }
  return measurements;
}

void ResultStore::touch_entry(const std::filesystem::path& dir) {
  try {
    const auto clock_path = root_ / "clock";
    std::uint64_t now = 0;
    if (const auto contents = vfs_->read_file(clock_path)) {
      now = std::strtoull(contents->c_str(), nullptr, 10);
    }
    ++now;
    auto clock_file = vfs_->open_write(clock_path, io::WriteMode::kTruncate);
    clock_file->append(std::to_string(now) + "\n");
    clock_file->close();
    auto stamp = vfs_->open_write(dir / "last-used", io::WriteMode::kTruncate);
    stamp->append(std::to_string(now) + "\n");
    stamp->close();
  } catch (const io::IoError&) {
    // LRU freshness is advisory; never fail an access over it (ENOSPC on a
    // full cache device must not break cache reads).
  }
}

std::uint64_t ResultStore::last_used(const std::filesystem::path& dir) const {
  const auto contents = vfs_->read_file(dir / "last-used");
  if (!contents) return 0;
  return std::strtoull(contents->c_str(), nullptr, 10);
}

ResultStore::Lookup ResultStore::peek(const ScenarioSpec& spec,
                                      std::uint64_t seed) const {
  Lookup lookup;
  lookup.dir = entry_dir(spec, seed);
  lookup.total_measurements = spec.total_measurements();
  if (vfs_->exists(lookup.dir / "summary.json")) {
    lookup.state = HitState::kHit;
    lookup.cached_measurements = lookup.total_measurements;
    return lookup;
  }
  lookup.cached_measurements =
      count_journal_measurements(lookup.dir / "journal.jsonl");
  lookup.state = lookup.cached_measurements > 0 ? HitState::kPartial : HitState::kMiss;
  return lookup;
}

ResultStore::Lookup ResultStore::lookup(const ScenarioSpec& spec, std::uint64_t seed) {
  const Lookup result = peek(spec, seed);
  switch (result.state) {
    case HitState::kHit: count("scenario.cache.hit"); break;
    case HitState::kPartial: count("scenario.cache.partial"); break;
    case HitState::kMiss: count("scenario.cache.miss"); break;
  }
  if (result.state != HitState::kMiss) touch_entry(result.dir);
  return result;
}

void ResultStore::touch(const std::string& key) {
  const auto dir = entry_dir(key);
  if (vfs_->exists(dir)) touch_entry(dir);
}

void ResultStore::touch(const ScenarioSpec& spec, std::uint64_t seed) {
  touch(entry_key(spec, seed));
}

std::filesystem::path ResultStore::prepare(const ScenarioSpec& spec,
                                           std::uint64_t seed) {
  const auto dir = entry_dir(spec, seed);
  vfs_->create_directories(dir);
  const auto spec_path = dir / "scenario.json";
  const std::string expected = spec.canonical_json() + "\n";
  // Rewrite unless the file already holds exactly the canonical bytes: a
  // crash can tear the unsynced provenance record, and "exists" alone
  // would leave the torn prefix in place forever.
  if (vfs_->read_file(spec_path) != expected) {
    auto out = vfs_->open_write(spec_path, io::WriteMode::kTruncate);
    out->append(expected);
    // Durable before the campaign starts: a crash after the summary is
    // published must not be able to tear the provenance record, because
    // the restart then serves the summary without re-running prepare().
    out->sync();
    out->close();
  }
  touch_entry(dir);
  return dir / "journal.jsonl";
}

bool ResultStore::has_summary(const std::string& key) const {
  return vfs_->exists(summary_path(key));
}

bool ResultStore::has_summary(const ScenarioSpec& spec, std::uint64_t seed) const {
  return has_summary(entry_key(spec, seed));
}

std::optional<std::string> ResultStore::read_summary(const ScenarioSpec& spec,
                                                     std::uint64_t seed) const {
  return vfs_->read_file(summary_path(spec, seed));
}

std::optional<std::string> ResultStore::read_summary_checked(const std::string& key) {
  const auto path = summary_path(key);
  auto summary = vfs_->read_file(path);
  if (!summary) return std::nullopt;
  if (summary_intact(*summary)) return summary;
  // Publication is fsync-then-rename, so a torn summary means external
  // damage. The journal may still be intact; drop only the summary so the
  // re-run resumes instead of starting cold.
  count("scenario.cache.corrupt_summaries");
  try {
    vfs_->remove(path);
  } catch (const io::IoError&) {
    // Unremovable == unreadable next time too; the caller still re-runs.
  }
  return std::nullopt;
}

std::optional<std::string> ResultStore::read_summary_checked(
    const ScenarioSpec& spec, std::uint64_t seed) {
  return read_summary_checked(entry_key(spec, seed));
}

std::optional<std::string> ResultStore::fetch_summary(const std::string& key) {
  auto summary = read_summary_checked(key);
  if (summary) touch_entry(entry_dir(key));
  return summary;
}

void ResultStore::write_summary(const ScenarioSpec& spec, std::uint64_t seed,
                                std::string_view summary) {
  const auto dir = entry_dir(spec, seed);
  vfs_->create_directories(dir);
  const auto final_path = dir / "summary.json";
  const auto tmp_path = dir / "summary.json.tmp";
  {
    auto out = vfs_->open_write(tmp_path, io::WriteMode::kTruncate);
    out->append(summary);
    // fsync BEFORE rename: rename orders the *name*, not the content. A
    // crash between an unsynced write and the rename would otherwise
    // publish a torn summary whose presence falsely marks the entry
    // complete.
    out->sync();
    out->close();
  }
  vfs_->rename(tmp_path, final_path);
  // Make the publication itself durable: the new directory entry must
  // survive the crash too, or the entry silently degrades to partial.
  vfs_->sync_dir(dir);
  touch_entry(dir);  // A fresh write counts as a use for the LRU ordering.
}

EntryLock ResultStore::try_lock(const ScenarioSpec& spec, std::uint64_t seed) {
  const auto dir = entry_dir(spec, seed);
  vfs_->create_directories(dir);
  const auto lock_path = dir / "lock";
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      auto file = vfs_->open_write(lock_path, io::WriteMode::kExclusive);
      file->append("pid " + std::to_string(::getpid()) + "\n");
      file->close();
      register_held(lock_path);
      return EntryLock{vfs_, lock_path};
    } catch (const io::IoError& error) {
      if (error.error_code() != EEXIST) throw;
    }
    auto contents = vfs_->read_file(lock_path);
    if (contents && (contents->compare(0, 4, "pid ") != 0 ||
                     contents->find('\n') == std::string::npos)) {
      // Exclusive-create and the pid append are two syscalls: an empty or
      // partial (no newline yet) lock may belong to a live acquirer
      // mid-write, not a torn crash. Grace-period re-read before treating
      // it as stale.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      contents = vfs_->read_file(lock_path);
    }
    if (contents && holder_alive(*contents, lock_path)) {
      count("scenario.cache.lock_contention");
      return EntryLock{};
    }
    if (contents) {
      // Dead holder: reap the stale lock, then race for it once more.
      count("scenario.cache.lock_stolen");
      try {
        vfs_->remove(lock_path);
      } catch (const io::IoError&) {
      }
    }
    // File vanished (holder released) or was reaped: second attempt races.
  }
  count("scenario.cache.lock_contention");
  return EntryLock{};
}

void ResultStore::note_lock_wait() { count("scenario.cache.lock_wait"); }

void ResultStore::note_read_through() { count("scenario.cache.read_through"); }

std::uintmax_t ResultStore::entry_bytes(const std::filesystem::path& dir) const {
  std::uintmax_t bytes = 0;
  for (const auto& file : vfs_->list_dir(dir)) bytes += vfs_->file_size(file);
  return bytes;
}

std::vector<ResultStore::EntryInfo> ResultStore::entries() const {
  std::vector<EntryInfo> out;
  for (const auto& path : vfs_->list_dir(root_)) {
    int schema_version = 0;
    const std::string key = path.filename().string();
    if (!parse_entry_key(key, schema_version)) continue;
    EntryInfo info;
    info.key = key;
    info.complete = vfs_->exists(path / "summary.json");
    info.journal_measurements = count_journal_measurements(path / "journal.jsonl");
    info.bytes = entry_bytes(path);
    info.last_used = last_used(path);
    info.current_schema = schema_version == kResultSchemaVersion;
    info.locked = vfs_->exists(path / "lock");
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const EntryInfo& a, const EntryInfo& b) { return a.key < b.key; });
  return out;
}

std::size_t ResultStore::remove_entry(const std::filesystem::path& dir) {
  if (!vfs_->exists(dir)) return 0;
  count("scenario.cache.evicted_bytes", static_cast<double>(entry_bytes(dir)));
  vfs_->remove_all(dir);
  count("scenario.cache.evictions");
  return 1;
}

std::size_t ResultStore::enforce_budget(const std::string& protect_key) {
  if (options_.max_bytes == 0) return 0;
  auto infos = entries();

  const auto live_locked = [this](const EntryInfo& info) {
    if (!info.locked) return false;
    const auto lock_path = root_ / info.key / "lock";
    const auto contents = vfs_->read_file(lock_path);
    return contents && holder_alive(*contents, lock_path);
  };

  std::uintmax_t total = 0;
  for (const auto& info : infos) total += info.bytes;
  std::size_t evicted = 0;

  // Stale-schema entries can never be read by this build: age them out
  // first, regardless of recency.
  for (auto& info : infos) {
    if (info.current_schema || info.key == protect_key || live_locked(info)) continue;
    total -= std::min(total, info.bytes);
    evicted += remove_entry(root_ / info.key);
    info.bytes = 0;
    info.key.clear();  // Mark consumed for the LRU pass.
  }

  // LRU pass: oldest logical clock first; key breaks ties deterministically.
  std::sort(infos.begin(), infos.end(), [](const EntryInfo& a, const EntryInfo& b) {
    return a.last_used != b.last_used ? a.last_used < b.last_used : a.key < b.key;
  });
  for (const auto& info : infos) {
    if (total <= options_.max_bytes) break;
    if (info.key.empty() || info.key == protect_key || live_locked(info)) continue;
    total -= std::min(total, info.bytes);
    evicted += remove_entry(root_ / info.key);
  }

  if (metrics_) {
    metrics_->gauge("scenario.cache.bytes").set(static_cast<double>(total));
  }
  return evicted;
}

std::vector<ResultStore::VerifyReport> ResultStore::verify() const {
  std::vector<VerifyReport> out;
  for (const auto& info : entries()) {
    VerifyReport report;
    report.key = info.key;
    const auto dir = root_ / info.key;

    if (const auto spec_text = vfs_->read_file(dir / "scenario.json");
        spec_text && !Json::valid(*spec_text)) {
      report.ok = false;
      report.note = "scenario.json does not parse";
    }
    if (report.ok) {
      if (const auto summary = vfs_->read_file(dir / "summary.json")) {
        if (!summary_intact(*summary)) {
          report.ok = false;
          report.note = "summary.json corrupt (empty, multi-line or unparseable)";
        }
      }
    }
    if (report.ok) {
      const auto journal = vfs_->read_file(dir / "journal.jsonl");
      if (journal && !journal->empty()) {
        std::size_t valid = 0;  // Record lines of any kind (values + stops).
        count_journal_measurements(dir / "journal.jsonl", &valid);
        // Count the journal's total record lines to spot a corrupt tail.
        const auto header_end = journal->find('\n');
        std::size_t lines = 0;
        for (auto pos = header_end;
             pos != std::string::npos && pos + 1 < journal->size();
             pos = journal->find('\n', pos + 1)) {
          ++lines;
        }
        const bool unterminated = journal->back() != '\n';
        if (valid < lines || unterminated) {
          report.note = "journal tail torn after " + std::to_string(valid) +
                        " valid records (truncates on resume)";
        }
      }
    }
    out.push_back(std::move(report));
  }
  return out;
}

std::size_t ResultStore::evict(const ScenarioSpec& spec, std::uint64_t seed) {
  return remove_entry(entry_dir(spec, seed));
}

std::size_t ResultStore::clear() {
  std::size_t removed = 0;
  for (const auto& path : vfs_->list_dir(root_)) {
    int schema_version = 0;
    if (!parse_entry_key(path.filename().string(), schema_version)) continue;
    removed += remove_entry(path);
  }
  return removed;
}

}  // namespace cloudrepro::scenario
