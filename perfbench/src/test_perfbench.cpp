// Tests of the benchmark's own logic: input generation, the byte-identity
// gate, the traced run's engine drive, and the in-memory store filesystem.
//
//   python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <thread>

#include "bench.h"
#include "scenario/result_store.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "vfs.h"

namespace perfbench {
namespace {

namespace scenario = cloudrepro::scenario;
namespace serve = cloudrepro::serve;

const std::filesystem::path kRoot = "store";

TEST(Inputs, SameSeedGivesByteIdenticalInputs) {
  const auto a = describe_inputs(make_inputs(7, 3));
  EXPECT_EQ(a, describe_inputs(make_inputs(7, 3)));
  EXPECT_NE(a, describe_inputs(make_inputs(8, 3)));
}

TEST(Inputs, SeedSetZeroIsEveryMembersDefaultSeed) {
  const auto inputs = make_inputs(7, 1);
  ASSERT_EQ(inputs.members.size(), 9u);
  for (std::size_t m = 0; m < inputs.members.size(); ++m) {
    EXPECT_EQ(inputs.seed_sets[0][m], inputs.members[m].seed);
  }
}

TEST(Gate, SerialAndParallelPassesMatchThePinnedDigests) {
  const auto inputs = make_inputs(1, 1);
  const auto specs = members_at(inputs, 0);
  MemVfs serial_vfs;
  MemVfs parallel_vfs;
  const Pass serial = run_pass(specs, 1, serial_vfs, kRoot);
  const Pass parallel = run_pass(specs, 4, parallel_vfs, kRoot);
  Tally tally;
  check_pinned(inputs.members, serial.summaries, tally);
  check_pass(parallel, serial.summaries, tally);
  EXPECT_EQ(tally.attempted, 2 * specs.size());
  EXPECT_EQ(tally.failed, 0u);
}

TEST(Gate, TamperedSummaryCountsAsFailure) {
  const auto inputs = make_inputs(3, 1);
  const auto specs = members_at(inputs, 0);
  MemVfs vfs;
  const Pass pass = run_pass(specs, 4, vfs, kRoot);
  std::vector<std::vector<std::string>> expected(kSeedSets, pass.summaries);
  std::vector<std::string> hashes;
  for (const auto& spec : inputs.members) hashes.push_back(spec.content_hash());

  // Still valid JSON, so the store serves it as a hit: only the gate can
  // notice the changed digit.
  const std::size_t member = 3;
  std::string tampered = pass.summaries[member];
  const auto digit = tampered.find_first_of("123456789", tampered.find("\"mean\""));
  ASSERT_NE(digit, std::string::npos);
  tampered[digit] = tampered[digit] == '9' ? '8' : static_cast<char>(tampered[digit] + 1);

  Tally bytes_tally;
  Pass damaged = pass;
  damaged.summaries[member] = tampered;
  check_pass(damaged, pass.summaries, bytes_tally);
  check_pinned(inputs.members, damaged.summaries, bytes_tally);
  EXPECT_EQ(bytes_tally.failed, 2u);

  scenario::ResultStore store{kRoot, nullptr, &vfs};
  const auto registry = member_registry(inputs);
  cloudrepro::obs::MetricsRegistry metrics;
  serve::ServeOptions options;
  options.registry = &registry;
  serve::ServerCore core{store, metrics, options};
  serve::SocketServer server{core, "127.0.0.1", 0};
  std::atomic<bool> stop{false};
  std::thread reactor{[&] { server.run(stop); }};
  {
    serve::FetchClient client{serve::connect_tcp("127.0.0.1", server.port())};
    Tally tally;
    const Fetch by_name{static_cast<std::uint32_t>(member), 0, false};
    const Fetch by_hash{static_cast<std::uint32_t>(member), 0, true};
    fetch_and_check(client, inputs, expected, hashes, by_name, tally);
    fetch_and_check(client, inputs, expected, hashes, by_hash, tally);
    EXPECT_EQ(tally.failed, 0u);
    vfs.open_write(store.summary_path(specs[member], specs[member].seed),
                   cloudrepro::io::WriteMode::kTruncate)
        ->append(tampered);
    fetch_and_check(client, inputs, expected, hashes, by_name, tally);
    fetch_and_check(client, inputs, expected, hashes, by_hash, tally);
    EXPECT_EQ(tally.attempted, 4u);
    EXPECT_EQ(tally.failed, 2u);
  }
  stop = true;
  reactor.join();
}

TEST(EngineDrive, ReproducesEveryCampaignValueExactly) {
  const auto inputs = make_inputs(5, 1);
  for (const auto& spec : members_at(inputs, 1)) {
    const auto result = scenario::run_scenario(spec);
    cloudrepro::obs::MetricsRegistry metrics;
    const EngineDrive drive = drive_engine(spec, result.campaign, &metrics);
    EXPECT_TRUE(drive.exact) << spec.name;
    EXPECT_EQ(drive.jobs, result.executed_measurements) << spec.name;
    EXPECT_EQ(metrics.counter_value("engine.jobs"), static_cast<double>(drive.jobs))
        << spec.name;
  }
}

TEST(HostSpeed, ReferenceKernelDoesTheSameWorkEveryCall) {
  EXPECT_EQ(reference_kernel(), reference_kernel());
  HostSpeed host;
  EXPECT_THROW(host.factor(), std::logic_error);
  host.sample();
  host.sample();
  EXPECT_EQ(host.samples(), 2u);
  EXPECT_GT(host.factor(), 0.0);
}

TEST(MemVfs, BehavesLikePosixForTheStore) {
  namespace io = cloudrepro::io;
  MemVfs vfs;
  EXPECT_THROW(vfs.open_write("d/f", io::WriteMode::kAppend), io::IoError);
  vfs.create_directories("d/e");
  auto file = vfs.open_write("d/f.tmp", io::WriteMode::kExclusive);
  file->append("ab");
  try {
    vfs.open_write("d/f.tmp", io::WriteMode::kExclusive);
    ADD_FAILURE() << "exclusive create of an existing file succeeded";
  } catch (const io::IoError& error) {
    EXPECT_EQ(error.error_code(), EEXIST);
  }
  vfs.rename("d/f.tmp", "d/f");
  file->append("c");  // The handle follows the renamed file.
  file->close();
  EXPECT_EQ(vfs.read_file("d/f"), "abc");
  EXPECT_FALSE(vfs.exists("d/f.tmp"));
  EXPECT_EQ(vfs.list_dir("d"), (std::vector<std::filesystem::path>{"d/e", "d/f"}));
  vfs.truncate("d/f", 1);
  EXPECT_EQ(vfs.file_size("d/f"), 1u);
  EXPECT_THROW(vfs.remove("d"), io::IoError);
  EXPECT_TRUE(vfs.remove("d/e"));
  EXPECT_EQ(vfs.remove_all("d"), 2u);  // d/f and d itself, as std::filesystem counts.
  EXPECT_FALSE(vfs.exists("d"));
}

}  // namespace
}  // namespace perfbench
