// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <cold-serial|warm-serve>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the `paper-figures` + `extensions` suite members
// (fig13-confirm adaptive) and checks every output byte: against pinned
// SHA-256 digests at the members' default seeds, and across the serial
// pass, the parallel pass and the served bytes at the workload seed.
// Untraced runs (--trace 0) report the end-to-end metrics of one
// workload; the traced run (--trace 1) times calls into each layer from
// this file and reports the per-layer metrics. The last stdout line is the
// result object; the lines before it stamp the environment and explain.
// See perfbench/README.md.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/trace.h"
#include "scenario/result_store.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "vfs.h"

namespace {

using namespace perfbench;
namespace obs = cloudrepro::obs;
namespace scenario = cloudrepro::scenario;
namespace serve = cloudrepro::serve;
using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Closed-loop warm-up before the warm-serve window (latencies discarded).
constexpr double kWarmupS = 0.5;
/// Warm-serve window slice; the reference kernel runs between slices.
constexpr double kSliceS = 1.0;
/// Store root inside the in-memory filesystem (never touches the disk).
const std::filesystem::path kStoreRoot = ".bench_build/perfbench-store";

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;  ///< Per-layer only: "<end-to-end metric> on <workload>".
};

struct Report {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  /// Largest MemVfs store held at once; taken out of peak_rss_mb, since the
  /// store stands in for a filesystem and is not the program's memory.
  std::uintmax_t store_bytes = 0;

  void add(std::string name, double value, std::string unit, std::string moves = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(moves)});
  }
  void note(const std::string& line) { lines.push_back(line); }
};

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// The process's peak RSS (VmHWM) minus `store_bytes`. Not getrusage's
/// ru_maxrss: Linux carries that across exec, so it reports the launcher's
/// peak whenever the launcher was larger than this program.
double peak_rss_mb(std::uintmax_t store_bytes) {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::stod(line.substr(6));
      return kb / 1024.0 - static_cast<double>(store_bytes) / (1 << 20);
    }
  }
  throw std::runtime_error{"VmHWM not found in /proc/self/status"};
}

int host_threads() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error{"non-finite metric value"};
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Runs a pass, recording one failed operation per member when it throws.
std::optional<Pass> checked_pass(const std::vector<ScenarioSpec>& specs, int threads,
                                 cloudrepro::io::Vfs& vfs, Report& report,
                                 obs::MetricsRegistry* metrics = nullptr) {
  try {
    return run_pass(specs, threads, vfs, kStoreRoot, metrics);
  } catch (const std::exception& error) {
    report.note(std::string{"pass failed: "} + error.what());
    for (std::size_t m = 0; m < specs.size(); ++m) report.tally.record(false);
    return std::nullopt;
  }
}

/// Gates seed set 0 against the pinned digests, naming each mismatch.
void verify_pinned(const Inputs& inputs, const std::vector<std::string>& summaries,
                   Report& report) {
  for (const auto& mismatch : check_pinned(inputs.members, summaries, report.tally)) {
    report.note("pinned digest mismatch: " + mismatch);
  }
}

/// Adds the gated times: the median set-up time and the throughput, each
/// scaled to the reference host speed by the speed measured around it. The
/// note line keeps the raw figures.
void add_scaled(Report& report, const HostSpeed& setup_host, double setup_s,
                const HostSpeed& host, double ops_per_s) {
  report.note("host speed setup=" + number(setup_host.factor()) + " run=" +
              number(host.factor()) + " (reference kernel, " +
              std::to_string(setup_host.samples() + host.samples()) +
              " samples) raw setup_s=" + number(setup_s) + " raw ops_per_s=" + number(ops_per_s));
  report.add("setup_s", setup_s * setup_host.factor(), "s");
  report.add("ops_per_s_at_ref", ops_per_s / host.factor(), "1/s");
}

std::string mb(std::uintmax_t bytes) { return number(static_cast<double>(bytes) / (1 << 20)); }

// --- cold-serial ----------------------------------------------------------------

/// One cold serial pass per iteration, each from an empty store, cycling
/// through the cold seed sets. Set-up is a serial pass at the pinned seeds
/// (the warm-up and the pinned gate); the reference bytes for each cold seed
/// set come from one parallel pass at `nproc` threads.
void cold_serial(const Inputs& inputs, int nproc, double seconds, Report& report) {
  HostSpeed setup_host;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    setup_host.sample();
    const auto start = Clock::now();
    MemVfs vfs;
    auto pinned = checked_pass(members_at(inputs, 0), 1, vfs, report);
    setup_s.push_back(seconds_since(start));
    if (pinned) verify_pinned(inputs, pinned->summaries, report);
  }
  setup_host.sample();

  std::vector<std::vector<ScenarioSpec>> sets;
  std::vector<std::vector<std::string>> reference;
  for (const auto& seeds : inputs.cold_seed_sets) {
    sets.push_back(members_with(inputs, seeds));
    MemVfs vfs;
    auto pass = checked_pass(sets.back(), nproc, vfs, report);
    reference.push_back(pass ? pass->summaries : std::vector<std::string>(seeds.size()));
  }

  // Throughput is total jobs over total pass time, not a median or a low
  // quantile of passes: on shared hosts the speed of a vCPU drifts over tens
  // of seconds, and totals move smoothly with it where quantiles jump. The
  // reference kernel runs before each pass and after the last, and the
  // gated figure is throughput divided by the host speed it reads.
  HostSpeed host;
  std::vector<double> wall_s;
  double jobs = 0.0;
  const auto start = Clock::now();
  for (std::size_t k = 0; seconds_since(start) < seconds || k < 3; ++k) {
    host.sample();
    MemVfs vfs;
    auto pass = checked_pass(sets[k % sets.size()], 1, vfs, report);
    if (!pass) continue;
    check_pass(*pass, reference[k % sets.size()], report.tally);
    wall_s.push_back(pass->wall_s);
    jobs += static_cast<double>(pass->jobs);
    report.store_bytes = std::max(report.store_bytes, vfs.bytes());
  }
  host.sample();

  const double busy_s = std::accumulate(wall_s.begin(), wall_s.end(), 0.0);
  const double ops_per_s = busy_s > 0.0 ? jobs / busy_s : 0.0;
  report.note("cold-serial passes=" + std::to_string(wall_s.size()) + " pass_ms p10/p50/p90=" +
              number(quantile(wall_s, 0.1) * 1e3) + "/" + number(quantile(wall_s, 0.5) * 1e3) +
              "/" + number(quantile(wall_s, 0.9) * 1e3) + " memvfs_mb=" + mb(report.store_bytes));
  add_scaled(report, setup_host, median(setup_s), host, ops_per_s);
}

// --- warm-serve ---------------------------------------------------------------

/// A populated store served from an in-process SocketServer + ServerCore on
/// 127.0.0.1:0, its reactor on its own thread.
struct ServeFixture {
  MemVfs mem;
  CountingVfs counting{mem};
  cloudrepro::io::Vfs& vfs;
  obs::MetricsRegistry metrics;
  scenario::ScenarioRegistry registry;
  scenario::ResultStore store;
  std::unique_ptr<serve::ServerCore> core;
  std::unique_ptr<serve::SocketServer> server;
  std::atomic<bool> stop{false};
  std::atomic<bool> server_failed{false};
  std::thread reactor;
  /// expected[s][m]: the populated summary of member m at seed set s.
  std::vector<std::vector<std::string>> expected;

  /// Populates every seed set with serial passes.
  ServeFixture(const Inputs& inputs, bool counted, Report& report)
      : vfs(counted ? static_cast<cloudrepro::io::Vfs&>(counting) : mem),
        registry(member_registry(inputs)),
        store(kStoreRoot, nullptr, &vfs) {
    for (std::size_t s = 0; s < kSeedSets; ++s) {
      auto pass = checked_pass(members_at(inputs, s), 1, vfs, report);
      if (!pass) throw std::runtime_error{"warm-serve: populating the store failed"};
      expected.push_back(pass->summaries);
    }
    serve::ServeOptions options;
    options.registry = &registry;
    core = std::make_unique<serve::ServerCore>(store, metrics, options);
    server = std::make_unique<serve::SocketServer>(*core, "127.0.0.1", 0);
    reactor = std::thread([this] {
      try {
        server->run(stop);
      } catch (const std::exception&) {
        server_failed = true;
      }
    });
  }
  ~ServeFixture() {
    stop = true;
    reactor.join();
  }
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  std::unique_ptr<serve::FetchClient> connect() const {
    serve::FetchClient::Options options;
    options.timeout = std::chrono::seconds{30};
    return std::make_unique<serve::FetchClient>(serve::connect_tcp("127.0.0.1", server->port()),
                                                options);
  }
};

/// Fixed-size latency histogram: log-spaced buckets 0.1% wide from 1 us to
/// 1 s. A vector of samples would grow with the request count, and so move
/// peak_rss_mb with throughput; this does not.
class LatencyHistogram {
 public:
  void add(double ms) {
    const double bucket = std::log(std::max(ms, kMinMs) / kMinMs) / kLogStep;
    ++counts_[std::min(counts_.size() - 1, static_cast<std::size_t>(bucket))];
    ++total_;
  }
  LatencyHistogram& operator+=(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    return *this;
  }
  std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile, as the geometric middle of its bucket; 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while (i + 1 < counts_.size() && (seen += counts_[i]) < rank) ++i;
    return kMinMs * std::exp((static_cast<double>(i) + 0.5) * kLogStep);
  }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kLogStep = 1e-3;
  /// ln(1 s / 1 us) / kLogStep buckets.
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(13816);
  std::uint64_t total_ = 0;
};

struct LoadResult {
  Tally tally;
  LatencyHistogram latency;  ///< Window requests only.
  std::size_t completed = 0;       ///< Verified-ok window requests.
  double window_s = 0.0;

  LoadResult& operator+=(const LoadResult& other) {
    tally += other.tally;
    latency += other.latency;
    completed += other.completed;
    window_s += other.window_s;
    return *this;
  }
};

/// Closed loop: one caller thread per client, each sending its next request
/// only after the previous reply. Requests completing after `warmup_s` and
/// before `warmup_s + window_s` are measured.
LoadResult run_load(const ServeFixture& fixture, const Inputs& inputs,
                    std::vector<std::unique_ptr<serve::FetchClient>>& clients,
                    double warmup_s, double window_s, obs::Tracer* tracer,
                    Clock::time_point trace_t0) {
  std::vector<std::string> hashes;
  for (const auto& spec : inputs.members) hashes.push_back(spec.content_hash());

  struct PerClient {
    Tally tally;
    LatencyHistogram latency;
    std::size_t completed = 0;
  };
  std::vector<PerClient> per(clients.size());
  const auto start = Clock::now();
  const auto window_start = start + std::chrono::duration<double>(warmup_s);
  const auto deadline = window_start + std::chrono::duration<double>(window_s);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      const auto& mix = inputs.key_mix[c];
      for (std::size_t i = 0;; ++i) {
        const auto t0 = Clock::now();
        if (t0 >= deadline) break;
        const Tally before = per[c].tally;
        fetch_and_check(*clients[c], inputs, fixture.expected, hashes,
                        mix[i % mix.size()], per[c].tally);
        const auto t1 = Clock::now();
        const bool ok = per[c].tally.failed == before.failed;
        if (t1 > window_start && t1 <= deadline) {
          per[c].latency.add(std::chrono::duration<double, std::milli>(t1 - t0).count());
          if (ok) ++per[c].completed;
        }
        if (tracer && i % 8 == 0) {
          tracer->complete(std::chrono::duration<double>(t0 - trace_t0).count(),
                           std::chrono::duration<double>(t1 - t0).count(), "client",
                           "fetch", {"member", static_cast<double>(mix[i % mix.size()].member)},
                           {}, static_cast<std::uint32_t>(c + 1));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  LoadResult load;
  load.window_s = window_s;
  for (auto& p : per) {
    load.tally += p.tally;
    load.completed += p.completed;
    load.latency += p.latency;
  }
  return load;
}

/// Two callers per CPU keep the single reactor thread saturated, so
/// throughput measures the serve path rather than how fast the host wakes an
/// idle vCPU. On a shared 4-vCPU host, throughput swung 1.9x across runs
/// with nproc-1 callers and 1.4x with 2*nproc.
std::size_t client_count(int nproc) { return static_cast<std::size_t>(2 * std::max(1, nproc)); }

void warm_serve(const Inputs& inputs, int nproc, double seconds, Report& report) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeFixture> fixture;
  std::vector<std::unique_ptr<serve::FetchClient>> clients;
  std::vector<std::vector<std::string>> first_expected;
  HostSpeed setup_host;
  for (int k = 0; k < kSetups; ++k) {
    clients.clear();
    fixture.reset();
    setup_host.sample();
    const auto start = Clock::now();
    fixture = std::make_unique<ServeFixture>(inputs, false, report);
    for (std::size_t c = 0; c < client_count(nproc); ++c) clients.push_back(fixture->connect());
    setup_s.push_back(seconds_since(start));
    if (first_expected.empty()) {
      first_expected = fixture->expected;
    } else {
      for (std::size_t s = 0; s < kSeedSets; ++s) {
        for (std::size_t m = 0; m < inputs.members.size(); ++m) {
          report.tally.record(fixture->expected[s][m] == first_expected[s][m]);
        }
      }
    }
  }
  setup_host.sample();
  verify_pinned(inputs, fixture->expected[0], report);
  {
    // Parallel reference for the served bytes (the populate ran serial).
    MemVfs vfs;
    if (auto parallel = checked_pass(members_at(inputs, 1), nproc, vfs, report)) {
      check_pass(*parallel, fixture->expected[1], report.tally);
    }
  }
  report.store_bytes = fixture->mem.bytes();

  // The window is cut into slices with the reference kernel between them,
  // run while every caller waits, so it reads the host speed of the window.
  HostSpeed host;
  LoadResult load;
  while (load.window_s < seconds) {
    host.sample();
    const double warmup_s = load.window_s == 0.0 ? kWarmupS : 0.0;
    const double window_s = std::min(kSliceS, seconds - load.window_s);
    load += run_load(*fixture, inputs, clients, warmup_s, window_s, nullptr, Clock::now());
  }
  host.sample();
  clients.clear();
  const bool server_failed = fixture->server_failed.load();
  fixture.reset();
  report.tally += load.tally;
  if (server_failed) report.tally.record(false);

  report.note("warm-serve closed loop: clients=" + std::to_string(client_count(nproc)) +
              " window_s=" + number(load.window_s) +
              " samples=" + std::to_string(load.latency.count()) +
              " fetch_ms.p50=" + number(load.latency.quantile(0.5)) +
              " fetch_ms.p99=" + number(load.latency.quantile(0.99)) +
              " memvfs_mb=" + mb(report.store_bytes));
  const double ops_per_s = static_cast<double>(load.completed) / load.window_s;
  add_scaled(report, setup_host, median(setup_s), host, ops_per_s);
}

// --- traced run ----------------------------------------------------------------

double hist_mean(obs::MetricsRegistry& metrics, const char* name) {
  return metrics.histogram(name).snapshot().mean();
}
double hist_sum(obs::MetricsRegistry& metrics, const char* name) {
  return metrics.histogram(name).snapshot().sum;
}

/// p50 of `op` timed over the first `n` requests of client 0's key mix.
template <typename Op>
double time_p50_ms(const Inputs& inputs, std::size_t n, obs::Tracer& tracer,
                   Clock::time_point t0, const char* name, Op&& op) {
  std::vector<double> ms;
  const auto& mix = inputs.key_mix[0];
  for (std::size_t i = 0; i < n; ++i) {
    const auto start = Clock::now();
    op(mix[i % mix.size()]);
    const auto end = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
    tracer.complete(std::chrono::duration<double>(start - t0).count(),
                    std::chrono::duration<double>(end - start).count(), "layer", name);
  }
  return quantile(ms, 0.5);
}

void traced(const Inputs& inputs, int nproc, double seconds, Report& report,
            const std::filesystem::path& trace_path) {
  obs::Tracer tracer{1 << 17};
  const auto t0 = Clock::now();
  const auto span = [&](const char* name, Clock::time_point start, double dur_s,
                        obs::TraceArg arg = {}) {
    tracer.complete(std::chrono::duration<double>(start - t0).count(), dur_s, "bench", name,
                    arg);
  };
  const auto specs = members_at(inputs, 1);
  const double members = static_cast<double>(specs.size());

  // Serial passes, untraced and traced interleaved, for ~40% of the budget.
  std::vector<double> untraced_jps;
  std::vector<double> traced_jps;
  std::vector<std::string> reference;
  std::optional<Pass> serial;
  std::unique_ptr<obs::MetricsRegistry> serial_metrics;
  IoCounts serial_io;
  HostSpeed host;
  for (int round = 0; seconds_since(t0) < 0.4 * seconds || round < 1; ++round) {
    host.sample();
    {
      MemVfs vfs;
      const auto start = Clock::now();
      auto pass = checked_pass(specs, 1, vfs, report);
      if (!pass) continue;
      span("pass.serial.untraced", start, pass->wall_s);
      untraced_jps.push_back(static_cast<double>(pass->jobs) / pass->wall_s);
      if (reference.empty()) {
        reference = pass->summaries;
      } else {
        check_pass(*pass, reference, report.tally);
      }
    }
    MemVfs mem;
    CountingVfs counting{mem};
    auto metrics = std::make_unique<obs::MetricsRegistry>();
    const auto start = Clock::now();
    auto pass = checked_pass(specs, 1, counting, report, metrics.get());
    if (!pass) continue;
    span("pass.serial.traced", start, pass->wall_s);
    for (std::size_t m = 0; m < specs.size(); ++m) {
      const double begin = m == 0 ? 0.0 : pass->member_done_s[m - 1];
      tracer.complete(std::chrono::duration<double>(start - t0).count() + begin,
                      pass->member_done_s[m] - begin, "scenario", "run_scenario",
                      {"member", static_cast<double>(m)});
    }
    check_pass(*pass, reference, report.tally);
    traced_jps.push_back(static_cast<double>(pass->jobs) / pass->wall_s);
    serial = std::move(pass);
    serial_metrics = std::move(metrics);
    serial_io = counting.counts();
  }

  if (!serial) throw std::runtime_error{"traced: no serial pass completed"};

  // Summary generation, re-timed on the traced pass's results.
  double summary_s = 0.0;
  for (std::size_t m = 0; m < specs.size(); ++m) {
    const auto start = Clock::now();
    const auto bytes = scenario::summary_json(specs[m], specs[m].seed, serial->results[m].campaign);
    const double dur = seconds_since(start);
    span("summary_json", start, dur, {"member", static_cast<double>(m)});
    summary_s += dur;
    report.tally.record(bytes == reference[m]);
  }
  double faults_ms = 0.0;
  for (std::size_t m = 0; m < specs.size(); ++m) {
    if (specs[m].name == "fault-mitigation") {
      faults_ms = (serial->member_done_s[m] - (m == 0 ? 0.0 : serial->member_done_s[m - 1])) * 1e3;
    }
  }
  const double job_s = hist_sum(*serial_metrics, "campaign.cell_wall_s");
  const double job_count =
      static_cast<double>(serial_metrics->histogram("campaign.cell_wall_s").snapshot().count);

  // Engine drive over the traced pass's jobs.
  obs::MetricsRegistry engine_metrics;
  std::size_t driven = 0;
  {
    const auto start = Clock::now();
    for (std::size_t m = 0; m < specs.size(); ++m) {
      const auto drive = drive_engine(specs[m], serial->results[m].campaign, &engine_metrics);
      driven += drive.jobs;
      report.tally.record(drive.exact);
      if (!drive.exact) report.note("engine drive diverged: " + specs[m].name);
    }
    span("engine_drive", start, seconds_since(start));
  }
  const double per_job = driven > 0 ? 1.0 / static_cast<double>(driven) : 0.0;

  // One traced parallel pass.
  obs::MetricsRegistry parallel_metrics;
  double parallel_share = 0.0;
  {
    MemVfs vfs;
    const auto start = Clock::now();
    if (auto pass = checked_pass(specs, nproc, vfs, report, &parallel_metrics)) {
      span("pass.parallel.traced", start, pass->wall_s);
      check_pass(*pass, reference, report.tally);
      parallel_share = hist_sum(parallel_metrics, "campaign.cell_wall_s") /
                       (static_cast<double>(nproc) * pass->wall_s);
    }
  }

  // Warm store: layer calls on the key mix, then a closed-loop serve phase.
  const auto populate_start = Clock::now();
  ServeFixture fixture{inputs, true, report};
  span("populate", populate_start, seconds_since(populate_start));
  verify_pinned(inputs, fixture.expected[0], report);
  std::vector<std::string> hashes;
  for (const auto& spec : inputs.members) hashes.push_back(spec.content_hash());
  const auto seed_of = [&](const Fetch& f) { return inputs.seed_sets[f.seed_set][f.member]; };
  constexpr std::size_t kCalls = 2000;
  // A throwaway store over the same files: touch/read go through the same
  // code the server runs, without disturbing the server's counters.
  scenario::ResultStore probe{kStoreRoot, nullptr, &fixture.mem};
  const double hash_ms = time_p50_ms(inputs, kCalls, tracer, t0, "content_hash",
                                     [&](const Fetch& f) {
                                       volatile auto size = inputs.members[f.member].content_hash().size();
                                       (void)size;
                                     });
  const double read_ms = time_p50_ms(inputs, kCalls, tracer, t0, "read_summary_checked",
                                     [&](const Fetch& f) {
                                       const auto bytes = probe.read_summary_checked(
                                           inputs.members[f.member], seed_of(f));
                                       report.tally.record(
                                           bytes && *bytes == fixture.expected[f.seed_set][f.member]);
                                     });
  const double touch_ms = time_p50_ms(inputs, kCalls, tracer, t0, "touch", [&](const Fetch& f) {
    probe.touch(inputs.members[f.member], seed_of(f));
  });
  const double parse_ms = time_p50_ms(inputs, kCalls, tracer, t0, "parse_request",
                                      [&](const Fetch& f) {
                                        const auto frame =
                                            f.by_hash ? serve::get_request_frame_by_hash(
                                                            hashes[f.member], seed_of(f))
                                                      : serve::get_request_frame_by_name(
                                                            inputs.members[f.member].name,
                                                            seed_of(f));
                                        const auto request = serve::parse_request(frame);
                                        report.tally.record(request.seed == seed_of(f));
                                      });
  const double response_ms = time_p50_ms(inputs, kCalls, tracer, t0, "get_response",
                                         [&](const Fetch& f) {
                                           volatile auto size =
                                               serve::get_response(
                                                   hashes[f.member], seed_of(f), "hit",
                                                   fixture.expected[f.seed_set][f.member])
                                                   .size();
                                           (void)size;
                                         });

  std::vector<std::unique_ptr<serve::FetchClient>> clients;
  for (std::size_t c = 0; c < client_count(nproc); ++c) clients.push_back(fixture.connect());
  const IoCounts io_before = fixture.counting.counts();
  const double hits_before = fixture.metrics.counter_value("serve.get_hit");
  const double load_s = std::max(0.5, 0.3 * seconds);
  const auto load_start = Clock::now();
  const LoadResult load = run_load(fixture, inputs, clients, 0.0, load_s, &tracer, t0);
  span("serve_load", load_start, seconds_since(load_start));
  report.tally += load.tally;
  const IoCounts io_serve = fixture.counting.counts() - io_before;
  const double hits = fixture.metrics.counter_value("serve.get_hit") - hits_before;
  const double per_hit = hits > 0 ? 1.0 / hits : 0.0;
  const double requests = fixture.metrics.counter_value("serve.requests_get");
  clients.clear();

  const double serial_wall = serial->wall_s;
  const double io_busy_s = serial_io.busy_s;
  const std::string cold = "ops_per_s_at_ref on cold-serial";
  const std::string par = "no gated pair: the parallel passes' byte checks only";
  const std::string warm = "ops_per_s_at_ref on warm-serve";
  report.add("bigdata.job_ms.mean", job_count > 0 ? job_s / job_count * 1e3 : 0.0, "ms",
             "ops_per_s_at_ref on cold-serial (not warm-serve)");
  report.add("bigdata.job_share.serial", job_s / serial_wall, "ratio", cold);
  report.add("bigdata.job_share.parallel", parallel_share, "ratio", par);
  report.add("runtime.idle_share", 1.0 - parallel_share, "ratio", par);
  report.add("simnet.allocations_per_job",
             engine_metrics.counter_value("simnet.allocations") * per_job, "count", cold);
  report.add("simnet.steps_per_job", engine_metrics.counter_value("simnet.steps") * per_job,
             "count", cold);
  report.add("simnet.flows_per_job",
             engine_metrics.counter_value("simnet.flows_started") * per_job, "count", cold);
  report.add("core.campaign_self_ms",
             (serial_wall - job_s - summary_s - io_busy_s) / members * 1e3, "ms", cold);
  report.add("core.journal_queue_depth.mean",
             hist_mean(parallel_metrics, "campaign.journal_queue_depth"), "count", par);
  report.add("faults.campaign_ms", faults_ms, "ms", cold);
  report.add("scenario.summary_ms", summary_s / members * 1e3, "ms", cold);
  report.add("scenario.content_hash_ms", hash_ms, "ms", warm);
  report.add("scenario.store_read_ms", read_ms, "ms", warm);
  report.add("scenario.store_touch_ms", touch_ms, "ms", warm);
  report.add("scenario.confirm.stop_repetitions.mean",
             hist_mean(*serial_metrics, "scenario.confirm.stop_repetitions"), "count",
             "none: exact, must never move");
  report.add("serve.parse_ms", parse_ms, "ms", warm);
  report.add("serve.response_ms", response_ms, "ms", warm);
  report.add("serve.server_ms.mean", hist_mean(fixture.metrics, "serve.request_latency_s") * 1e3,
             "ms", warm);
  report.add("serve.bytes_out_per_request",
             requests > 0 ? fixture.metrics.counter_value("serve.bytes_out") / requests : 0.0,
             "bytes", "ops_per_s_at_ref on warm-serve");
  report.add("serve.fetch_ms.p50", load.latency.quantile(0.5), "ms",
             "ops_per_s_at_ref on warm-serve (closed loop: clients / latency)");
  report.add("serve.fetch_ms.p99", load.latency.quantile(0.99), "ms",
             "ops_per_s_at_ref on warm-serve (tail)");
  report.add("io.appends_per_campaign", static_cast<double>(serial_io.appends) / members,
             "count", cold);
  report.add("io.syncs_per_campaign", static_cast<double>(serial_io.syncs) / members, "count",
             cold);
  report.add("io.busy_ms_per_campaign", io_busy_s / members * 1e3, "ms", cold);
  report.add("io.reads_per_hit", static_cast<double>(io_serve.reads) * per_hit, "count", warm);
  report.add("io.writes_per_hit", static_cast<double>(io_serve.appends) * per_hit, "count", warm);
  report.add("io.busy_ms_per_hit", io_serve.busy_s * per_hit * 1e3, "ms", warm);
  report.add("host.speed", host.factor(), "ratio",
             "none: the host speed every ops_per_s_at_ref is divided by; the times here are raw");
  report.add("obs.untraced_jobs_per_s", median(untraced_jps), "1/s", cold);
  report.add("obs.traced_jobs_per_s", median(traced_jps), "1/s",
             "tracing overhead against obs.untraced_jobs_per_s");

  report.note("traced: serial pass pairs=" + std::to_string(traced_jps.size()) +
              " jobs driven=" + std::to_string(driven) +
              " serve samples=" + std::to_string(load.latency.count()) +
              " tracing overhead=" +
              number(median(untraced_jps) / median(traced_jps) - 1.0));

  std::filesystem::create_directories(trace_path.parent_path());
  std::ofstream out{trace_path, std::ios::binary | std::ios::trunc};
  tracer.write_chrome_json(out);
  if (!out) throw std::runtime_error{"cannot write " + trace_path.string()};
  report.note("trace: " + trace_path.string() + " (" + std::to_string(tracer.size()) +
              " spans, " + std::to_string(tracer.dropped()) + " dropped)");
}

// --- entry point ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + flag};
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument{"--trace is 0 or 1"};
      args.trace = value == "1";
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  if (args.workload != "cold-serial" && args.workload != "warm-serve") {
    throw std::invalid_argument{"--workload must be cold-serial or warm-serve"};
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    throw std::invalid_argument{"--seconds must be in (0, 120]"};
  }
  return args;
}

std::string compiler() {
#if defined(__clang__)
  return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  return std::string{"gcc "} + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (std::string{PERFBENCH_BUILD_TYPE} != "Release") {
      std::cerr << "perfbench: refusing to record from a " << PERFBENCH_BUILD_TYPE
                << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }
    const int nproc = host_threads();
    const Inputs inputs = make_inputs(args.seed, client_count(nproc));

    Report report;
    if (args.trace) {
      traced(inputs, nproc, args.seconds, report,
             ".bench_build/perfbench-trace/" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".json");
    } else if (args.workload == "cold-serial") {
      cold_serial(inputs, nproc, args.seconds, report);
    } else {
      warm_serve(inputs, nproc, args.seconds, report);
    }
    if (!args.trace) {
      const auto& t = report.tally;
      report.add("success_rate",
                 t.attempted > 0 ? static_cast<double>(t.attempted - t.failed) /
                                       static_cast<double>(t.attempted)
                                 : 0.0,
                 "ratio");
      report.add("peak_rss_mb", peak_rss_mb(report.store_bytes), "MB");
    }

    std::cout << "env {\"nproc\":" << nproc << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
              << "\",\"cloudrepro_obs\":" << PERFBENCH_OBS
              << ",\"store_fs\":\"memvfs (in-process memory)\",\"workload\":\""
              << args.workload << "\",\"seed\":" << args.seed
              << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"compiler\":\"" << compiler()
              << "\"}\n";
    for (const auto& line : report.lines) std::cout << line << '\n';
    for (const auto& m : report.metrics) {
      std::cout << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit;
      if (!m.moves.empty()) std::cout << "  -> " << m.moves;
      std::cout << '\n';
    }

    std::ostringstream metrics;
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const auto& m = report.metrics[i];
      metrics << (i ? "," : "") << '"' << m.name << "\":{\"value\":" << number(m.value)
              << ",\"unit\":\"" << m.unit << "\"}";
    }
    const auto& t = report.tally;
    std::cout << "{\"correct\":" << (t.failed == 0 && t.attempted > 0 ? "true" : "false")
              << ",\"attempted\":" << t.attempted << ",\"failed\":" << t.failed
              << ",\"metrics\":{" << metrics.str() << "}}" << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
