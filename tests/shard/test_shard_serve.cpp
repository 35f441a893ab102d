// The shard coordinator inside ServerCore, driven hermetically over
// in-memory transports: worker registration, pull/push assignment flow,
// conflict rejection, worker death (reassignment and demotion to local
// execution), and the blocking worker loop end to end. The invariant under
// test everywhere: the GET response's summary is byte-identical to a
// single-node run, no matter how the cells were distributed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "scenario/runner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "serve/worker.h"
#include "shard/runner.h"

namespace cloudrepro::serve {
namespace {

namespace fs = std::filesystem;
using scenario::ResultStore;
using scenario::ScenarioSpec;

ScenarioSpec tiny_spec(const std::string& name = "shard-serve-test") {
  ScenarioSpec spec;
  spec.name = name;
  spec.workloads = {{"hibench", "TS", std::nullopt}, {"hibench", "KM", std::nullopt}};
  spec.budgets = {5000.0, 10.0};
  spec.repetitions = 3;
  return spec;
}

struct TestClient {
  std::unique_ptr<MemoryTransport> transport;
  FrameDecoder decoder{64u << 20};
  std::uint64_t id = 0;
};

TestClient connect(ServerCore& core, MemoryPipeOptions pipe = {}) {
  auto [client_end, server_end] = make_memory_pair(pipe);
  TestClient client;
  client.transport = std::move(client_end);
  client.id = core.add_connection(std::move(server_end));
  return client;
}

void send(ServerCore& core, TestClient& client, const std::string& frame) {
  std::string wire = frame + "\n";
  std::string_view data = wire;
  while (!data.empty()) {
    const IoResult result = client.transport->write(data);
    if (result.status == IoStatus::kOk) {
      data.remove_prefix(result.bytes);
    } else {
      ASSERT_EQ(result.status, IoStatus::kWouldBlock);
      core.poll_once();
    }
  }
}

std::optional<Response> recv(ServerCore& core, TestClient& client,
                             std::chrono::seconds timeout = std::chrono::seconds{120}) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string frame;
  for (;;) {
    if (client.decoder.next(frame) == FrameDecoder::Status::kFrame) {
      return parse_response(frame);
    }
    char buffer[4096];
    const IoResult result = client.transport->read(buffer, sizeof buffer);
    if (result.status == IoStatus::kOk) {
      client.decoder.push({buffer, result.bytes});
      continue;
    }
    if (result.status == IoStatus::kClosed) return std::nullopt;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "recv timed out";
      return std::nullopt;
    }
    if (!core.poll_once()) {
      core.wait_activity(std::chrono::milliseconds{1});
    }
  }
}

/// SHARD_PLAN with an inline spec: the canonical GET frame with its op
/// swapped (the two ops share their addressing grammar).
std::string shard_plan_frame(const ScenarioSpec& spec) {
  std::string frame = get_request_frame(spec, std::nullopt);
  const auto at = frame.find("\"GET\"");
  EXPECT_NE(at, std::string::npos);
  return frame.replace(at, 5, "\"SHARD_PLAN\"");
}

class ShardServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-shardserve-" +
             std::string{
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()});
    fs::remove_all(root_);
    store_.emplace(root_ / "cache", &metrics_);
  }
  void TearDown() override {
    core_.reset();
    store_.reset();
    fs::remove_all(root_);
  }

  ServerCore& core(ServeOptions options = {}) {
    if (!core_) core_.emplace(*store_, metrics_, std::move(options));
    return *core_;
  }

  /// Rebuilds the store over `fault_` so a test can count the bytes the
  /// coordinator writes; call before the first `core()`.
  void store_on_fault_vfs() { store_.emplace(root_ / "cache", &metrics_, &fault_); }

  std::string reference_summary(const ScenarioSpec& spec) {
    ResultStore store{root_ / "reference"};
    scenario::RunOptions options;
    options.threads = 1;
    options.store = &store;
    return scenario::run_scenario(spec, options).summary;
  }

  /// Registers `client` as a worker: one SHARD_PULL, expecting idle.
  void register_worker(TestClient& client, const std::string& name) {
    send(core(), client, shard_pull_request_frame(name));
    const auto response = recv(core(), client);
    ASSERT_TRUE(response && response->ok);
    ASSERT_TRUE(parse_shard_pull_response(response->body).idle);
  }

  /// Pulls once; nullopt when the coordinator answered idle.
  std::optional<ShardAssignment> pull(TestClient& client, const std::string& name) {
    send(core(), client, shard_pull_request_frame(name));
    const auto response = recv(core(), client);
    if (!response || !response->ok) {
      ADD_FAILURE() << "SHARD_PULL failed";
      return std::nullopt;
    }
    ShardAssignment assignment = parse_shard_pull_response(response->body);
    if (assignment.idle) return std::nullopt;
    return assignment;
  }

  /// Executes one assignment honestly and pushes the result; returns the ack.
  ShardPushAck execute_and_push(TestClient& client, const std::string& name,
                                const ShardAssignment& assignment) {
    auto cells = scenario::build_cells(*assignment.spec);
    const auto options = scenario::campaign_options(*assignment.spec);
    shard::CellTask task{assignment.cell, assignment.resume};
    const auto result =
        shard::run_cell_task(cells, options, assignment.seed, task);
    EXPECT_TRUE(result.complete);
    send(core(), client,
         shard_push_request_frame(name, assignment.key, assignment.cell,
                                  result.lines, 0.01));
    const auto response = recv(core(), client);
    EXPECT_TRUE(response && response->ok);
    return parse_shard_push_response(response->body);
  }

  /// Drives `client` as the only worker until the campaign completes.
  void drain_as_worker(TestClient& client, const std::string& name) {
    for (int i = 0; i < 200; ++i) {
      const auto assignment = pull(client, name);
      if (!assignment) {
        core().poll_once();  // GET may not have opened the session yet.
        continue;
      }
      if (execute_and_push(client, name, *assignment).campaign_complete) return;
    }
    FAIL() << "campaign did not complete within the pull budget";
  }

  fs::path root_;
  obs::MetricsRegistry metrics_;
  io::FaultVfs fault_{io::real_vfs()};
  std::optional<ResultStore> store_;
  std::optional<ServerCore> core_;
};

TEST_F(ShardServeTest, PullPushFlowServesByteIdenticalSummary) {
  const auto spec = tiny_spec();
  store_on_fault_vfs();
  TestClient worker = connect(core());
  register_worker(worker, "w1");

  // Before any GET: SHARD_PLAN reports the campaign idle but the worker
  // registered.
  send(core(), worker, shard_plan_frame(spec));
  auto plan_response = recv(core(), worker);
  ASSERT_TRUE(plan_response && plan_response->ok);
  ShardPlanInfo info = parse_shard_plan_response(plan_response->body);
  EXPECT_EQ(info.state, "idle");
  EXPECT_EQ(info.workers, 1u);
  EXPECT_EQ(info.cells, 4u);

  // The GET is the sole admission path; with a worker connected the leader
  // opens a shard session instead of executing locally.
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));
  drain_as_worker(worker, "w1");

  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  // The publishing step replays the merged journal (journal present, no
  // summary yet), so the disposition reads as a partial-entry completion.
  EXPECT_EQ(get->hit, "partial");
  EXPECT_EQ(get->summary, reference_summary(spec));
  // The merged journal went through the store's filesystem, like the
  // summary and scenario.json.
  const auto entry_bytes = fs::file_size(store_->journal_path(spec, spec.seed)) +
                           fs::file_size(store_->summary_path(spec, spec.seed)) +
                           fs::file_size(store_->entry_dir(spec, spec.seed) /
                                         "scenario.json");
  EXPECT_GE(fault_.bytes_written(), entry_bytes);

  // Post-completion introspection and accounting.
  send(core(), worker, shard_plan_frame(spec));
  plan_response = recv(core(), worker);
  ASSERT_TRUE(plan_response && plan_response->ok);
  info = parse_shard_plan_response(plan_response->body);
  EXPECT_EQ(info.state, "complete");
  EXPECT_EQ(metrics_.counter("shard.sessions_opened").value(), 1.0);
  EXPECT_EQ(metrics_.counter("shard.sessions_finalized").value(), 1.0);
  EXPECT_EQ(metrics_.counter("shard.cells_completed").value(), 4.0);

  // A second GET is a pure cache hit — no new session.
  send(core(), client, get_request_frame(spec, std::nullopt));
  const auto warm = recv(core(), client);
  ASSERT_TRUE(warm && warm->ok);
  EXPECT_EQ(warm->hit, "hit");
  EXPECT_EQ(warm->summary, get->summary);
  EXPECT_EQ(metrics_.counter("shard.sessions_opened").value(), 1.0);
}

TEST_F(ShardServeTest, ConflictingPushIsTypedRejectionAndSessionSurvives) {
  const auto spec = tiny_spec();
  TestClient worker = connect(core());
  register_worker(worker, "w1");
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));

  std::optional<ShardAssignment> assignment;
  for (int i = 0; i < 50 && !assignment; ++i) {
    assignment = pull(worker, "w1");
    if (!assignment) core().poll_once();
  }
  ASSERT_TRUE(assignment);

  // Push one honest record, then a conflicting one for the same repetition
  // (valid checksum, different value) — a version-skewed or corrupt worker.
  auto cells = scenario::build_cells(*assignment->spec);
  const auto options = scenario::campaign_options(*assignment->spec);
  shard::CellTask task{assignment->cell, assignment->resume};
  const auto result = shard::run_cell_task(cells, options, assignment->seed, task);
  send(core(), worker,
       shard_push_request_frame("w1", assignment->key, assignment->cell,
                                {result.lines[0]}, 0.0));
  auto ack_response = recv(core(), worker);
  ASSERT_TRUE(ack_response && ack_response->ok);

  core::JournalRecord record;
  ASSERT_TRUE(core::parse_journal_line(result.lines[0], record));
  record.value += 1.0;
  send(core(), worker,
       shard_push_request_frame("w1", assignment->key, assignment->cell,
                                {core::journal_line(record)}, 0.0));
  const auto rejection = recv(core(), worker);
  ASSERT_TRUE(rejection);
  EXPECT_FALSE(rejection->ok);
  EXPECT_EQ(rejection->error_code, "conflict");
  EXPECT_EQ(metrics_.counter("shard.push_rejected").value(), 1.0);

  // The session survived the poisoned push; honest work completes it and
  // the summary is still the single-node bytes.
  drain_as_worker(worker, "w1");
  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  EXPECT_EQ(get->summary, reference_summary(spec));
}

TEST_F(ShardServeTest, DeadWorkersCellsAreReassigned) {
  const auto spec = tiny_spec();
  TestClient doomed = connect(core());
  TestClient survivor = connect(core());
  register_worker(doomed, "doomed");
  register_worker(survivor, "survivor");

  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));

  // The doomed worker claims a cell and dies without pushing a byte.
  std::optional<ShardAssignment> claimed;
  for (int i = 0; i < 50 && !claimed; ++i) {
    claimed = pull(doomed, "doomed");
    if (!claimed) core().poll_once();
  }
  ASSERT_TRUE(claimed);
  doomed.transport->close();
  // Let the reactor notice the dead connection and requeue its cell.
  for (int i = 0; i < 50 && metrics_.counter("shard.cells_reassigned").value() < 1.0;
       ++i) {
    if (!core().poll_once()) core().wait_activity(std::chrono::milliseconds{1});
  }
  EXPECT_GE(metrics_.counter("shard.cells_reassigned").value(), 1.0);

  // The survivor finishes everything, including the orphaned cell.
  drain_as_worker(survivor, "survivor");
  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  EXPECT_EQ(get->summary, reference_summary(spec));
}

TEST_F(ShardServeTest, LastWorkerDeathDemotesToLocalExecution) {
  const auto spec = tiny_spec();
  TestClient worker = connect(core());
  register_worker(worker, "w1");
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));

  // The worker completes one cell so demotion has partial progress to keep,
  // then dies.
  std::optional<ShardAssignment> assignment;
  for (int i = 0; i < 50 && !assignment; ++i) {
    assignment = pull(worker, "w1");
    if (!assignment) core().poll_once();
  }
  ASSERT_TRUE(assignment);
  execute_and_push(worker, "w1", *assignment);
  worker.transport->close();

  // With no workers left the session demotes: the coordinator persists the
  // partial journal and finishes the campaign itself. The waiting GET still
  // gets single-node bytes.
  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  EXPECT_EQ(get->summary, reference_summary(spec));
  EXPECT_EQ(metrics_.counter("shard.sessions_demoted").value(), 1.0);
  EXPECT_EQ(metrics_.counter("shard.cells_completed").value(), 1.0);
}

TEST_F(ShardServeTest, PushForUnknownSessionIsTypedError) {
  TestClient worker = connect(core());
  register_worker(worker, "w1");
  send(core(), worker,
       shard_push_request_frame("w1", "no-such-session", 0, {}, 0.0));
  const auto response = recv(core(), worker);
  ASSERT_TRUE(response);
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, "unknown_session");
}

TEST_F(ShardServeTest, RunWorkerLoopEndToEnd) {
  const auto spec = tiny_spec();
  ServeOptions serve_options;
  serve_options.worker_retry_ms = 1;  // Fast idle polling for the test.
  ServerCore& server = core(serve_options);

  // All connections are added before the reactor thread starts: ServerCore
  // is reactor-thread-only, so the only thread that may touch it once the
  // pump is running is the pump itself.
  auto [worker_a_end, worker_a_server] = make_memory_pair();
  auto [worker_b_end, worker_b_server] = make_memory_pair();
  auto [get_end, get_server_end] = make_memory_pair();
  server.add_connection(std::move(worker_a_server));
  server.add_connection(std::move(worker_b_server));
  server.add_connection(std::move(get_server_end));

  std::atomic<bool> stop{false};
  std::thread reactor{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!server.poll_once()) server.wait_activity(std::chrono::milliseconds{1});
    }
  }};

  auto worker_body = [](std::unique_ptr<MemoryTransport> transport,
                        const std::string& name, WorkerStats* stats) {
    WorkerOptions options;
    options.name = name;
    options.threads = 2;
    options.idle_sleep_ms = 1;
    options.max_idle_polls = 500;  // Generous: exits well after completion.
    *stats = run_worker(std::move(transport), options);
  };
  WorkerStats stats_a;
  WorkerStats stats_b;
  std::thread worker_a{worker_body, std::move(worker_a_end), "worker-a", &stats_a};
  std::thread worker_b{worker_body, std::move(worker_b_end), "worker-b", &stats_b};

  // Both workers must be registered before the GET, or the leader sees no
  // workers and executes the campaign locally.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (metrics_.gauge("shard.workers").value() < 2.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  ASSERT_EQ(metrics_.gauge("shard.workers").value(), 2.0);

  FetchClient fetch{std::move(get_end)};
  const Response response = fetch.get(spec);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.summary, reference_summary(spec));

  worker_a.join();
  worker_b.join();
  stop.store(true);
  reactor.join();

  // Every cell was completed exactly once across the two workers.
  EXPECT_EQ(stats_a.cells_completed + stats_b.cells_completed, 4u);
  EXPECT_GT(stats_a.records_pushed + stats_b.records_pushed, 0u);
}

TEST_F(ShardServeTest, FetchTimesOutAgainstPeerThatNeverDelivers) {
  // The connection opens but the "server" never reads or writes — the
  // MemoryTransport analogue of a SIGSTOPped daemon behind an accepting
  // socket. The deadline must fire instead of blocking forever.
  auto [client_end, server_end] = make_memory_pair();
  FetchClient::Options options;
  options.timeout = std::chrono::milliseconds{200};
  FetchClient client{std::move(client_end), options};

  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(client.request(stats_request_frame()), FetchTimeout);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_GE(elapsed, std::chrono::milliseconds{200});
  EXPECT_LT(elapsed, std::chrono::seconds{30});
  (void)server_end;  // Alive but silent for the whole exchange.
}

}  // namespace
}  // namespace cloudrepro::serve
