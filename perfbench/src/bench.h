#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "serve/client.h"

namespace perfbench {

using cloudrepro::scenario::ScenarioSpec;

/// Seed sets the warm-serve store holds: set 0 is every member's own
/// (pinned) seed, sets 1.. derive from the workload seed. The traced run
/// uses set 1.
inline constexpr std::size_t kSeedSets = 4;
/// Seed sets cold-serial cycles through, one per pass. A pass's cost
/// depends on its seeds: over 12 seed sets, run round-robin in one process,
/// jobs/s ranged 7464-9961. So a run averages over many seed sets, and its
/// throughput does not hang on which seed the run drew.
inline constexpr std::size_t kColdSeedSets = 32;
/// Requests in each warm-serve client's key sequence (cycled).
inline constexpr std::size_t kKeyMixLength = 4096;

/// One warm-serve request: which member, at which seed set, addressed by
/// registry name or by content hash.
struct Fetch {
  std::uint32_t member = 0;
  std::uint32_t seed_set = 0;
  bool by_hash = false;
};

/// Everything a run executes, generated from the workload seed alone.
struct Inputs {
  std::uint64_t seed = 0;
  /// The `paper-figures` + `extensions` members, fig13-confirm adaptive (as
  /// `cloudrepro run fig13-confirm --adaptive` runs it), each at its own
  /// default seed.
  std::vector<ScenarioSpec> members;
  /// seed_sets[s][m]: master seed of member m in seed set s.
  std::vector<std::vector<std::uint64_t>> seed_sets;
  /// key_mix[c]: warm-serve client c's request sequence.
  std::vector<std::vector<Fetch>> key_mix;
  /// cold_seed_sets[k][m]: master seed of member m in cold-serial pass k
  /// (mod kColdSeedSets).
  std::vector<std::vector<std::uint64_t>> cold_seed_sets;
};

Inputs make_inputs(std::uint64_t seed, std::size_t clients);
/// Canonical text of the inputs (the same-seed identity check).
std::string describe_inputs(const Inputs& inputs);
/// The members with `seeds` applied.
std::vector<ScenarioSpec> members_with(const Inputs& inputs,
                                       const std::vector<std::uint64_t>& seeds);
/// The members with seed set `set` applied.
std::vector<ScenarioSpec> members_at(const Inputs& inputs, std::size_t set);

/// SHA-256 of every member summary at its default seed, pinned from the
/// commit that introduced the benchmark. Keyed by member name.
const std::map<std::string, std::string>& pinned_summary_sha256();

/// Operations attempted and failed. An operation is one member run or one
/// fetch; it fails on an exception or on bytes that differ from the
/// reference.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  Tally& operator+=(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    return *this;
  }
};

/// One suite pass over `specs`: run_suite at `threads` (1 = the serial
/// reference path) into a fresh, empty store on `vfs` under `root`.
struct Pass {
  std::vector<std::string> summaries;  ///< Empty when the pass threw.
  std::vector<double> member_done_s;   ///< Completion time of each member.
  double wall_s = 0.0;
  std::size_t jobs = 0;  ///< Spark jobs executed (measurements).
  std::vector<cloudrepro::scenario::ScenarioRunResult> results;
};
Pass run_pass(const std::vector<ScenarioSpec>& specs, int threads,
              cloudrepro::io::Vfs& vfs, const std::filesystem::path& root,
              cloudrepro::obs::MetricsRegistry* metrics = nullptr);

/// Records one operation per member: ok when the pass produced
/// `expected[m]` byte for byte.
void check_pass(const Pass& pass, const std::vector<std::string>& expected, Tally& tally);
/// Records one operation per member against the pinned digests. Returns
/// "<member> <digest>" for each mismatch.
std::vector<std::string> check_pinned(const std::vector<ScenarioSpec>& members,
                                      const std::vector<std::string>& summaries,
                                      Tally& tally);

/// Re-executes every Spark job of a finished campaign by driving
/// `bigdata::SparkEngine::run` directly, exactly as the scenario's cells
/// do, with `EngineOptions::metrics` attached. Returns the jobs driven and
/// whether every runtime matched the campaign's value bit for bit.
struct EngineDrive {
  std::size_t jobs = 0;
  bool exact = true;
};
EngineDrive drive_engine(const ScenarioSpec& spec,
                         const cloudrepro::core::CampaignResult& campaign,
                         cloudrepro::obs::MetricsRegistry* metrics);

/// A registry holding exactly the benchmark's members, so GETs by name and
/// by hash resolve the adaptive fig13 variant.
cloudrepro::scenario::ScenarioRegistry member_registry(const Inputs& inputs);

/// Sends one warm-serve request and records it: ok when the response is
/// ok and its summary equals `expected[f.seed_set][f.member]`.
void fetch_and_check(cloudrepro::serve::FetchClient& client, const Inputs& inputs,
                     const std::vector<std::vector<std::string>>& expected,
                     const std::vector<std::string>& hashes, const Fetch& f,
                     Tally& tally);

/// One run of the reference kernel: an event loop over a binary heap whose
/// handlers update a hash map with libm calls, then a pointer chase over
/// 1 MB. It belongs to the benchmark, not to the program, so no change to
/// the program moves its time. Returns a checksum of its work, the same on
/// every call.
std::uint64_t reference_kernel();

/// Host speed, read from the reference kernel run between the workload's
/// operations. On a shared host the speed of user code drifts by up to
/// +-25% over minutes, and the kernel drifts with the workload: dividing a
/// throughput by factor() takes most of that drift out.
class HostSpeed {
 public:
  /// The kernel's typical time on the 4-vCPU Xeon host the benchmark was
  /// defined on. Its only role is to keep scaled figures near raw ones.
  static constexpr double kNominalS = 0.019;

  HostSpeed();
  /// Runs the kernel once and adds its time.
  void sample();
  std::size_t samples() const { return samples_; }
  /// Nominal over mean measured kernel time: above 1 on a faster host.
  double factor() const;

 private:
  double total_s_ = 0.0;
  std::size_t samples_ = 0;
};

/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
double quantile(std::vector<double> values, double q);

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace perfbench
