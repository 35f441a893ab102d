#include "core/campaign.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "core/report.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace cloudrepro::core {

namespace {

/// SplitMix64-style mixer for deriving independent sub-seeds. Each
/// (cell, repetition) gets its own stream, which is what makes journal
/// resume bit-identical: replaying a completed repetition consumes no
/// draws from anyone else's stream.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool cancelled(const CampaignOptions& options) noexcept {
  return options.cancel && options.cancel->load(std::memory_order_relaxed);
}

}  // namespace

std::uint64_t campaign_repetition_seed(std::uint64_t master, std::size_t cell,
                                       int rep) noexcept {
  return mix(mix(master, cell + 1), static_cast<std::uint64_t>(rep) + 1);
}

std::vector<std::size_t> campaign_execution_order(std::size_t cell_count,
                                                  const CampaignOptions& options,
                                                  std::uint64_t seed) {
  std::vector<std::size_t> order;
  if (options.randomize_order) {
    stats::Rng order_rng{mix(seed, 0)};
    order = order_rng.permutation(cell_count);
  } else {
    order.resize(cell_count);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  }
  return order;
}

std::vector<std::size_t> CampaignResult::cells_for(const std::string& config) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].config == config) out.push_back(i);
  }
  return out;
}

stats::TestResult CampaignResult::treatment_effect(const std::string& config) const {
  const auto indices = cells_for(config);
  if (indices.size() < 2) {
    throw std::invalid_argument{
        "treatment_effect: config '" + config + "' has fewer than 2 treatments"};
  }
  std::vector<std::vector<double>> groups;
  groups.reserve(indices.size());
  for (const auto i : indices) groups.push_back(cells[i].values);
  return stats::kruskal_wallis(groups);
}

void CampaignResult::write_csv(std::ostream& os) const {
  os << "config,treatment,repetition,value\n";
  for (const auto& cell : cells) {
    for (std::size_t r = 0; r < cell.values.size(); ++r) {
      os << cell.config << ',' << cell.treatment << ',' << r << ','
         << cell.values[r] << '\n';
    }
  }
}

CampaignResult run_campaign(std::vector<CampaignCell> cells,
                            const CampaignOptions& options, std::uint64_t seed) {
  if (cells.empty()) throw std::invalid_argument{"run_campaign: no cells"};
  if (options.repetitions_per_cell < 1) {
    throw std::invalid_argument{"run_campaign: need at least one repetition per cell"};
  }
  if (options.max_measurements < 0) {
    throw std::invalid_argument{"run_campaign: max_measurements must be >= 0"};
  }
  if (options.threads < 0) {
    throw std::invalid_argument{"run_campaign: threads must be >= 0"};
  }
  for (const auto& cell : cells) {
    if (!cell.run_once || !cell.fresh) {
      throw std::invalid_argument{"run_campaign: cell callables must be set"};
    }
  }
  if (options.adaptive.enabled) {
    // Fail here, on the caller's thread, rather than from the first
    // ConfirmMonitor constructed inside a worker.
    if (options.adaptive.error_bound <= 0.0) {
      throw std::invalid_argument{"run_campaign: adaptive error bound must be positive"};
    }
    if (options.adaptive.quantile <= 0.0 || options.adaptive.quantile >= 1.0) {
      throw std::invalid_argument{"run_campaign: adaptive quantile must be in (0, 1)"};
    }
    if (options.adaptive.confidence <= 0.0 || options.adaptive.confidence >= 1.0) {
      throw std::invalid_argument{"run_campaign: adaptive confidence must be in (0, 1)"};
    }
  }

  // Observability sinks, owned by the caller. All campaign events live in
  // the wall-clock domain (track 0, seconds since campaign start) —
  // per-measurement sim time is the cells' business, not ours.
  obs::Tracer* tracer = options.tracer;
  obs::MetricsRegistry* metrics = options.metrics;
  obs::Histogram* h_cell_wall =
      metrics ? &metrics->histogram("campaign.cell_wall_s") : nullptr;
  obs::Histogram* h_queue_depth =
      metrics ? &metrics->histogram("campaign.journal_queue_depth") : nullptr;
  obs::Counter* c_executed =
      metrics ? &metrics->counter("campaign.measurements_executed") : nullptr;
  const auto obs_t0 = std::chrono::steady_clock::now();
  const auto wall_s = [obs_t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - obs_t0)
        .count();
  };

  CampaignResult result;
  result.seed = seed;
  result.seed_recorded = true;
  result.options = options;
  result.cells.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    result.cells[i].config = cells[i].config;
    result.cells[i].treatment = cells[i].treatment;
  }

  // Randomized execution order over (cell, repetition) pairs would break
  // per-cell warm-up symmetry; the paper randomizes at the experiment level,
  // so we shuffle cells and run each cell's repetitions consecutively with
  // fresh state per repetition. The order comes from its own derived stream
  // so it matches across interrupt/resume cycles.
  result.execution_order = campaign_execution_order(cells.size(), options, seed);

  // Journal: replay the checksummed valid prefix, truncate any torn or
  // corrupt tail, then append new measurements as they finish. All journal
  // I/O goes through the (injectable) vfs so crash torture can interpose.
  io::Vfs& vfs = options.vfs ? *options.vfs : io::real_vfs();
  const std::string header = journal_header(cells, options, seed);
  std::map<std::pair<std::size_t, int>, double> done;
  std::map<std::size_t, int> stops;
  std::unique_ptr<io::WritableFile> journal;
  if (!options.journal_path.empty()) {
    auto replay = replay_journal(vfs, options.journal_path, header,
                                 cells.size(), options.repetitions_per_cell);
    done = std::move(replay.done);
    stops = std::move(replay.stops);
    if (replay.corrupt_tail) {
      // Keep only the intact record prefix; the measurements the tail held
      // simply re-run. This is the torn-write recovery path.
      vfs.truncate(options.journal_path, replay.valid_bytes);
    }
    journal = vfs.open_write(options.journal_path, io::WriteMode::kAppend);
    if (replay.valid_bytes == 0) journal->append(header + "\n");
  }

  // One execution path for every mode. A task runs one cell's repetitions
  // [lo, hi) in order. An adaptive cell is a single task [0, cap) that its
  // ConfirmMonitor may stop early: the stopping rule is evaluated after
  // every measurement, so a cell's repetitions cannot run ahead of it, and
  // the executed set stays a per-cell repetition prefix — which is what
  // keeps resume bit-identical across thread counts. A fixed cell gives one
  // single-repetition task per pending repetition; that list is built in
  // execution order and cut to `max_measurements`, so the executed set is
  // the serial prefix at any thread count.
  struct Task {
    std::size_t cell = 0;
    int lo = 0;
    int hi = 0;
  };
  const int cap = options.repetitions_per_cell;
  std::vector<Task> tasks;
  for (const auto idx : result.execution_order) {
    if (options.adaptive.enabled) {
      tasks.push_back({idx, 0, cap});
      continue;
    }
    for (int r = 0; r < cap; ++r) {
      if (done.find({idx, r}) == done.end()) tasks.push_back({idx, r, r + 1});
    }
  }
  if (!options.adaptive.enabled && options.max_measurements > 0 &&
      tasks.size() > static_cast<std::size_t>(options.max_measurements)) {
    tasks.resize(static_cast<std::size_t>(options.max_measurements));
  }

  // Fresh values and stop decisions land in per-cell slots: tasks never
  // write the same slot, and assembly below reads them in grid order.
  struct CellRun {
    std::vector<std::optional<double>> values;
    bool converged = false;
    std::size_t stop_repetitions = 0;
  };
  std::vector<CellRun> runs(cells.size());
  for (const auto& task : tasks) {
    runs[task.cell].values.resize(static_cast<std::size_t>(cap));
  }

  std::atomic<int> budget{options.max_measurements};
  const auto claim_budget = [&]() -> bool {
    if (options.max_measurements <= 0) return true;
    int cur = budget.load(std::memory_order_relaxed);
    while (cur > 0) {
      if (budget.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  };

  // Runs one task until its range ends, its cell converges, or the budget
  // or cancellation stops it, handing each journal record to `emit`. Returns
  // false when it was stopped before its range ended.
  const auto run_task = [&](const Task& task, const auto& emit) -> bool {
    auto& run = runs[task.cell];
    std::optional<ConfirmMonitor> monitor;
    if (options.adaptive.enabled) monitor.emplace(options.adaptive);
    bool ran_out = false;
    for (int r = task.lo; r < task.hi; ++r) {
      double value = 0.0;
      if (const auto it = done.find({task.cell, r}); it != done.end()) {
        value = it->second;
      } else {
        if (!claim_budget() || cancelled(options)) {
          ran_out = true;
          break;
        }
        const double m_start = wall_s();
        cells[task.cell].fresh();
        stats::Rng rep_rng{campaign_repetition_seed(seed, task.cell, r)};
        value = cells[task.cell].run_once(rep_rng);
        const double m_dur = wall_s() - m_start;
        if (h_cell_wall) h_cell_wall->observe(m_dur);
        if (c_executed) c_executed->add();
        if (tracer) {
          tracer->complete(m_start, m_dur, "campaign", "measurement",
                           {"cell", static_cast<double>(task.cell)},
                           {"rep", static_cast<double>(r)},
                           static_cast<std::uint32_t>(task.cell), 0);
        }
        run.values[static_cast<std::size_t>(r)] = value;
        emit({task.cell, r, value});
      }
      if (monitor && monitor->add(value)) {
        // Re-emitting after a torn tail heals a lost stop record; when the
        // record already replayed, the decision is simply re-derived.
        if (stops.find(task.cell) == stops.end()) {
          emit(journal_stop_record(task.cell,
                                   static_cast<int>(monitor->stop_repetitions())));
        }
        break;
      }
    }
    if (monitor) {
      run.converged = monitor->converged();
      run.stop_repetitions = monitor->stop_repetitions();
    }
    return !ran_out;
  };

  // An external pool (cloudrepro suite's shared thread budget) overrides
  // the `threads` knob; with one, tasks go to the pool even at a single
  // worker, since the caller owns the scheduling decision.
  const int worker_threads =
      options.pool ? options.pool->thread_count()
                   : runtime::ThreadPool::resolve_thread_count(options.threads);
  if (tasks.empty() || (!options.pool && worker_threads == 1)) {
    // Serial reference path: tasks run inline in execution order and append
    // to the journal directly.
    const auto append = [&](const JournalRecord& record) {
      if (journal) journal->append(journal_line(record) + "\n");
    };
    for (const auto& task : tasks) {
      if (!run_task(task, append)) break;
    }
  } else {
    // Workers push finished journal lines into `lines`; this (coordinating)
    // thread swaps them out and is the single journal writer. A worker's
    // last act is finished++/notify under `mu`, so once this thread sees
    // every task finished while holding it, no worker still touches this
    // frame — which is what lets an external (suite-shared) pool outlive
    // the campaign without a wait_idle() that would block on other
    // campaigns' tasks.
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::string> lines;  // Guarded by mu.
    std::size_t finished = 0;        // Guarded by mu.
    std::exception_ptr task_error;   // Guarded by mu.

    std::unique_ptr<runtime::ThreadPool> owned_pool;
    runtime::ThreadPool* pool = options.pool;
    if (!pool) {
      owned_pool = std::make_unique<runtime::ThreadPool>(worker_threads);
      pool = owned_pool.get();
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      pool->submit([&, t] {
        std::exception_ptr error;
        try {
          run_task(tasks[t], [&](const JournalRecord& record) {
            std::string line = journal_line(record);
            std::lock_guard<std::mutex> lock{mu};
            lines.push_back(std::move(line));
            cv.notify_one();
          });
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock{mu};
        if (error && !task_error) task_error = error;
        ++finished;
        cv.notify_one();
      });
    }

    std::exception_ptr writer_error;
    std::vector<std::string> batch;
    std::unique_lock<std::mutex> lock{mu};
    for (;;) {
      cv.wait(lock, [&] { return !lines.empty() || finished == tasks.size(); });
      if (lines.empty()) break;
      batch.swap(lines);
      lock.unlock();
      // Lines waiting at this drain: how far the workers have run ahead of
      // the single journal writer.
      if (h_queue_depth) h_queue_depth->observe(static_cast<double>(batch.size()));
      for (const auto& line : batch) {
        if (!journal || writer_error) break;
        // A failed append must not abandon in-flight tasks (they reference
        // this frame); keep draining and surface the error after every task
        // lands.
        try {
          journal->append(line + "\n");
        } catch (...) {
          writer_error = std::current_exception();
        }
      }
      batch.clear();
      lock.lock();
    }
    if (task_error) std::rethrow_exception(task_error);
    if (writer_error) std::rethrow_exception(writer_error);
  }

  // Grid-order assembly, shared by every mode: each cell takes its replayed
  // and freshly measured repetitions in order, up to its stop point or the
  // first one missing. The first cell left short (neither at the cap nor
  // adaptively converged) is the interruption point; the cells after it
  // stay empty, exactly as the serial path leaves them.
  for (const auto idx : result.execution_order) {
    auto& out = result.cells[idx];
    const auto& run = runs[idx];
    out.adaptive_converged = run.converged;
    out.stop_repetitions = run.stop_repetitions;
    const int last = run.converged ? static_cast<int>(run.stop_repetitions) : cap;
    out.values.reserve(static_cast<std::size_t>(last));
    for (int r = 0; r < last; ++r) {
      if (const auto it = done.find({idx, r}); it != done.end()) {
        out.values.push_back(it->second);
        ++result.resumed_measurements;
      } else if (static_cast<std::size_t>(r) < run.values.size() &&
                 run.values[static_cast<std::size_t>(r)]) {
        out.values.push_back(*run.values[static_cast<std::size_t>(r)]);
      } else {
        break;
      }
    }
    if (out.values.size() < static_cast<std::size_t>(last)) break;
  }

  if (journal) {
    // Durability point: everything journaled so far survives a crash from
    // here on. The caller publishes the summary only after this returns, so
    // fsync-journal happens-before publish-summary.
    journal->sync();
    journal->close();
  }

  for (auto& out : result.cells) {
    if (!out.values.empty()) {
      out.summary = stats::summarize(out.values);
      out.median_ci = stats::median_ci(out.values, options.confidence);
      if (options.adaptive.enabled) {
        out.confirm_ci = stats::quantile_ci(out.values, options.adaptive.quantile,
                                            options.adaptive.confidence);
      }
    }
  }

  result.complete = true;
  for (const auto& cell : result.cells) {
    const bool at_cap = cell.values.size() ==
                        static_cast<std::size_t>(options.repetitions_per_cell);
    // An adaptively converged cell is complete at its stop point: the
    // remaining repetitions were deliberately not run, not interrupted.
    if (!at_cap && !(options.adaptive.enabled && cell.adaptive_converged)) {
      result.complete = false;
      break;
    }
  }

  if (metrics && result.resumed_measurements > 0) {
    metrics->counter("campaign.measurements_resumed")
        .add(static_cast<double>(result.resumed_measurements));
  }
  if (tracer) {
    tracer->complete(0.0, wall_s(), "campaign", "campaign",
                     {"cells", static_cast<double>(cells.size())},
                     {"reps", static_cast<double>(options.repetitions_per_cell)},
                     0, 0);
  }
  return result;
}

CampaignResult run_campaign(std::vector<CampaignCell> cells,
                            const CampaignOptions& options, stats::Rng& rng) {
  return run_campaign(std::move(cells), options, rng.next_u64());
}

void print_campaign_summary(std::ostream& os, const CampaignResult& result) {
  if (result.seed_recorded) {
    os << "campaign: seed=" << result.seed
       << " repetitions_per_cell=" << result.options.repetitions_per_cell
       << " randomize_order=" << (result.options.randomize_order ? "true" : "false")
       << " confidence=" << result.options.confidence;
    if (!result.options.journal_path.empty()) {
      os << " journal=" << result.options.journal_path.string();
    }
    if (result.resumed_measurements > 0) {
      os << " resumed=" << result.resumed_measurements;
    }
    if (!result.complete) os << " [INCOMPLETE]";
    os << '\n';
  }
  TablePrinter t{{"Config", "Treatment", "Median [95% CI]", "Mean", "CoV"}};
  for (const auto& cell : result.cells) {
    t.add_row({cell.config, cell.treatment, fmt_ci(cell.median_ci, 1),
               fmt(cell.summary.mean, 1),
               fmt_pct(cell.summary.coefficient_of_variation)});
  }
  t.print(os);
}

}  // namespace cloudrepro::core
