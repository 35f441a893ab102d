// Crash-torture harness for the campaign journal: crash the "process" at
// every possible vfs operation k, restart, and require the final result to
// be byte-identical to an uninterrupted run. If any durability assumption
// in the journal path is wrong (missing fsync, non-atomic publish, corrupt
// tail mishandling), some k exposes it.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/journal.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"

namespace cloudrepro::core {
namespace {

namespace fs = std::filesystem;

/// Cheap deterministic cells: each repetition's value is a pure function of
/// its seed-derived RNG stream, so interrupted-and-resumed campaigns can be
/// compared bit-for-bit against uninterrupted ones.
std::vector<CampaignCell> torture_cells() {
  std::vector<CampaignCell> cells;
  const struct {
    const char* config;
    const char* treatment;
    double mean;
  } specs[] = {{"wl-a", "t=1", 100.0},
               {"wl-a", "t=2", 150.0},
               {"wl-b", "t=1", 80.0}};
  for (const auto& spec : specs) {
    cells.push_back(CampaignCell{
        spec.config, spec.treatment,
        [mean = spec.mean](stats::Rng& rng) { return rng.normal(mean, 5.0); },
        [] {}});
  }
  return cells;
}

CampaignOptions torture_options() {
  CampaignOptions options;
  options.repetitions_per_cell = 4;  // 3 cells x 4 reps = 12 measurements.
  return options;
}

std::string csv_bytes(const CampaignResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

class CampaignCrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-torture-" +
             std::string{::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()});
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  io::RealVfs real_;
  static constexpr std::uint64_t kSeed = 20200225;  // NSDI '20 day one.
};

TEST_F(CampaignCrashTortureTest, EveryCrashPointResumesBitIdentical) {
  // Uninterrupted reference run (journaled through a counting FaultVfs so
  // its op total defines the crash-point sweep domain).
  io::FaultVfs counting{real_};
  auto options = torture_options();
  options.vfs = &counting;
  options.journal_path = root_ / "ref" / "journal.jsonl";
  fs::create_directories(root_ / "ref");
  const auto reference = run_campaign(torture_cells(), options, kSeed);
  ASSERT_TRUE(reference.complete);
  const std::string reference_csv = csv_bytes(reference);
  const std::uint64_t total_ops = counting.ops();
  ASSERT_GT(total_ops, 10u);

  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    const auto dir = root_ / ("k" + std::to_string(k));
    fs::create_directories(dir);
    auto opts = torture_options();
    opts.journal_path = dir / "journal.jsonl";

    // Run until the crash, losing a torn fraction of unsynced bytes.
    io::FaultVfsOptions fault;
    fault.crash_at_op = k;
    fault.torn_write_seed = k * 77 + 1;
    bool crashed = false;
    CampaignResult result;
    {
      io::FaultVfs vfs{real_, fault};
      opts.vfs = &vfs;
      try {
        result = run_campaign(torture_cells(), opts, kSeed);
      } catch (const io::SimulatedCrash&) {
        crashed = true;
      }
    }
    if (crashed) {
      // Restart: a fresh "process" over whatever survived on disk.
      io::FaultVfs vfs{real_};
      opts.vfs = &vfs;
      result = run_campaign(torture_cells(), opts, kSeed);
    }

    ASSERT_TRUE(result.complete) << "crash point k=" << k;
    EXPECT_EQ(csv_bytes(result), reference_csv)
        << "resumed result diverged after crash at op " << k;
  }
}

TEST_F(CampaignCrashTortureTest, DroppedFsyncStillResumesBitIdentical) {
  // Op-count the clean run so the schedule can target its final fsync.
  io::FaultVfs counting{real_};
  auto ref_opts = torture_options();
  ref_opts.vfs = &counting;
  ref_opts.journal_path = root_ / "ref.jsonl";
  const auto reference = run_campaign(torture_cells(), ref_opts, kSeed);
  const std::uint64_t total_ops = counting.ops();

  // Drop every fsync the campaign issues, let it "complete", then crash on
  // the next operation: nothing was ever durable, so the crash may tear the
  // journal anywhere — including mid-record. Resume must still converge to
  // the same result.
  auto options = torture_options();
  options.journal_path = root_ / "journal.jsonl";
  io::FaultVfsOptions fault;
  fault.crash_at_op = total_ops + 1;
  fault.torn_write_seed = 99;
  for (std::uint64_t op = 1; op <= total_ops; ++op) {
    fault.dropped_fsyncs.push_back(op);
  }
  {
    io::FaultVfs vfs{real_, fault};
    options.vfs = &vfs;
    const auto doomed = run_campaign(torture_cells(), options, kSeed);
    EXPECT_TRUE(doomed.complete);  // It believes its fsyncs happened...
    EXPECT_GT(vfs.dropped_sync_count(), 0u);
    EXPECT_THROW(vfs.exists(root_), io::SimulatedCrash);  // ...then dies.
  }
  io::FaultVfs vfs{real_};
  options.vfs = &vfs;
  const auto resumed = run_campaign(torture_cells(), options, kSeed);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(csv_bytes(resumed), csv_bytes(reference));
}

TEST_F(CampaignCrashTortureTest, EnospcPropagatesAndResumeCompletes) {
  // At threads=4 the failing append happens on the single journal writer
  // while other measurements are still in flight: the error must be kept
  // until every task lands, then surface.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto options = torture_options();
    options.threads = threads;
    options.journal_path = root_ / ("journal-t" + std::to_string(threads) + ".jsonl");

    io::FaultVfsOptions fault;
    fault.enospc_after_bytes = 600;  // Enough for the header + a few records.
    {
      io::FaultVfs vfs{real_, fault};
      options.vfs = &vfs;
      try {
        run_campaign(torture_cells(), options, kSeed);
        FAIL() << "the journal write past the budget must surface ENOSPC";
      } catch (const io::IoError& error) {
        EXPECT_EQ(error.error_code(), ENOSPC);
      }
    }

    // The disk "recovers"; the journaled prefix is reused, not re-run.
    io::FaultVfs vfs{real_};
    options.vfs = &vfs;
    const auto resumed = run_campaign(torture_cells(), options, kSeed);
    ASSERT_TRUE(resumed.complete);
    EXPECT_GT(resumed.resumed_measurements, 0u);

    auto clean_opts = torture_options();
    const auto clean = run_campaign(torture_cells(), clean_opts, kSeed);
    EXPECT_EQ(csv_bytes(resumed), csv_bytes(clean));
  }
}

TEST_F(CampaignCrashTortureTest, CancellationJournalsPrefixAndResumes) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::atomic<bool> cancel{false};
    std::atomic<int> executed{0};

    // The cancel flag flips from inside the 5th measurement — the shape of
    // a SIGINT arriving mid-campaign.
    std::vector<CampaignCell> cells = torture_cells();
    for (auto& cell : cells) {
      auto inner = cell.run_once;
      cell.run_once = [&cancel, &executed, inner](stats::Rng& rng) {
        if (++executed == 5) cancel.store(true);
        return inner(rng);
      };
    }

    auto options = torture_options();
    options.threads = threads;
    options.journal_path = root_ / ("journal-t" + std::to_string(threads) + ".jsonl");
    options.cancel = &cancel;
    const auto interrupted = run_campaign(std::move(cells), options, kSeed);
    EXPECT_FALSE(interrupted.complete);
    if (threads == 1) {
      EXPECT_EQ(executed.load(), 5);
    } else {
      // Measurements already in flight on the other workers finish.
      EXPECT_GE(executed.load(), 5);
      EXPECT_LT(executed.load(), 5 + threads);
    }

    // Every executed measurement reached the journal before return.
    auto& vfs = io::real_vfs();
    const auto replay = replay_journal(
        vfs, options.journal_path,
        journal_header(torture_cells(), options, kSeed), 3,
        options.repetitions_per_cell);
    EXPECT_EQ(replay.done.size(), static_cast<std::size_t>(executed.load()));

    auto resume_opts = torture_options();
    resume_opts.journal_path = options.journal_path;
    const auto resumed = run_campaign(torture_cells(), resume_opts, kSeed);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.resumed_measurements,
              static_cast<std::size_t>(executed.load()));

    const auto clean = run_campaign(torture_cells(), torture_options(), kSeed);
    EXPECT_EQ(csv_bytes(resumed), csv_bytes(clean));
  }
}

}  // namespace
}  // namespace cloudrepro::core
