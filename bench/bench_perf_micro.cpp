// Performance microbenchmarks (google-benchmark): the hot paths that make
// week-scale simulations and 100-repetition CONFIRM sweeps cheap.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bigdata/cluster.h"
#include "bigdata/engine.h"
#include "bigdata/workload.h"
#include "cloud/instances.h"
#include "core/campaign.h"
#include "measure/iperf.h"
#include "measure/patterns.h"
#include "obs/metrics.h"
#include "scenario/registry.h"
#include "scenario/result_store.h"
#include "scenario/runner.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "simnet/fluid_network.h"
#include "simnet/packet_path.h"
#include "simnet/qos.h"
#include "stats/ci.h"
#include "stats/rng.h"

using namespace cloudrepro;

namespace {

void BM_FluidAllToAll(benchmark::State& state) {
  const auto nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simnet::FluidNetwork net;
    for (int i = 0; i < nodes; ++i) {
      net.add_node(std::make_unique<simnet::FixedRateQos>(10.0), 10.0);
    }
    for (int s = 0; s < nodes; ++s) {
      for (int d = 0; d < nodes; ++d) {
        if (s != d) net.start_flow(static_cast<std::size_t>(s),
                                   static_cast<std::size_t>(d), 8.0);
      }
    }
    benchmark::DoNotOptimize(net.run_until_flows_complete(1e6));
  }
  state.SetItemsProcessed(state.iterations() * nodes * (nodes - 1));
}
BENCHMARK(BM_FluidAllToAll)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_WeekLongTokenBucketProbe(benchmark::State& state) {
  for (auto _ : state) {
    stats::Rng rng{1};
    measure::BandwidthProbeOptions probe;
    probe.duration_s = 24.0 * 3600.0;  // One simulated day per iteration.
    benchmark::DoNotOptimize(measure::run_bandwidth_probe(
        cloud::ec2_c5_xlarge(), measure::full_speed(), probe, rng));
  }
}
BENCHMARK(BM_WeekLongTokenBucketProbe)->Unit(benchmark::kMillisecond);

void BM_PacketStreamOneSecond(benchmark::State& state) {
  const double write = static_cast<double>(state.range(0));
  stats::Rng rng{2};
  for (auto _ : state) {
    simnet::FixedRateQos qos{10.0};
    auto vnic = simnet::ec2_vnic();
    simnet::PacketPathConfig cfg;
    cfg.duration_s = 1.0;
    cfg.write_bytes = write;
    cfg.max_recorded_packets = 1000;
    benchmark::DoNotOptimize(simnet::run_packet_stream(qos, vnic, cfg, rng));
  }
  state.SetLabel("write=" + std::to_string(state.range(0)) + "B");
}
BENCHMARK(BM_PacketStreamOneSecond)->Arg(9000)->Arg(131072)->Unit(benchmark::kMillisecond);

void BM_SparkJob(benchmark::State& state) {
  const auto bucket = *cloud::ec2_c5_xlarge().nominal_bucket();
  const simnet::TokenBucketQos proto{bucket};
  stats::Rng rng{3};
  for (auto _ : state) {
    auto cluster = bigdata::Cluster::uniform(12, 16, proto, 10.0);
    bigdata::SparkEngine engine;
    benchmark::DoNotOptimize(engine.run(bigdata::tpcds_query(65), cluster, rng));
  }
}
BENCHMARK(BM_SparkJob)->Unit(benchmark::kMicrosecond);

// A CPU-bound campaign cell: each repetition burns deterministic arithmetic
// from its own seed-derived stream, so the bench isolates the scheduler's
// scaling from journal/IO costs. Threads 1/2/4/8 chart the speedup curve
// (expect ~linear up to the core count; flat on a single-core host).
void BM_CampaignParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<core::CampaignCell> cells;
    for (int c = 0; c < 4; ++c) {
      cells.push_back(core::CampaignCell{
          "cell" + std::to_string(c), "t",
          [](stats::Rng& r) {
            double acc = 0.0;
            for (int i = 0; i < 50000; ++i) acc += r.normal();
            return acc;
          },
          [] {}});
    }
    core::CampaignOptions opt;
    opt.repetitions_per_cell = 8;
    opt.threads = threads;
    benchmark::DoNotOptimize(
        core::run_campaign(std::move(cells), opt, std::uint64_t{7}));
  }
  state.SetItemsProcessed(state.iterations() * 4 * 8);
}
BENCHMARK(BM_CampaignParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Per-node aggregate-rate queries against a large live flow set: O(1) via
// the caches maintained by allocate_rates, independent of the ~1k active
// flows (these queries run per node per event step in week-long probes).
void BM_FluidAggregateRate(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  simnet::FluidNetwork net;
  for (std::size_t i = 0; i < nodes; ++i) {
    net.add_node(std::make_unique<simnet::FixedRateQos>(10.0), 10.0);
  }
  for (std::size_t s = 0; s < nodes; ++s) {
    for (std::size_t d = 0; d < nodes; ++d) {
      if (s != d) net.start_flow(s, d);  // Open-ended: stays active.
    }
  }
  net.run_for(1e-6);  // Forces an allocation so rates are non-zero.
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) {
      acc += net.node_egress_rate(i) + net.node_ingress_rate(i);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * nodes * 2);
}
BENCHMARK(BM_FluidAggregateRate)->Arg(8)->Arg(16)->Arg(32);

// Suite scheduling: two unequal scenarios, serial member loop (arg 0)
// versus one pool of four workers shared by both members (arg 1). The
// shared arm's win is the idle time reclaimed when the light member's cells
// finish early; on a single-core host the two arms should tie.
void BM_SuiteSharedPool(benchmark::State& state) {
  const bool shared = state.range(0) != 0;
  std::vector<scenario::ScenarioSpec> specs(2);
  specs[0].name = "bench-suite-heavy";
  specs[0].workloads = {{"hibench", "TS", std::nullopt}};
  specs[0].budgets = {5000.0, 10.0};
  specs[0].repetitions = 3;
  specs[1].name = "bench-suite-light";
  specs[1].workloads = {{"hibench", "KM", std::nullopt}};
  specs[1].budgets = {1000.0};
  specs[1].repetitions = 2;

  scenario::RunOptions options;
  options.threads = shared ? 4 : 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario::run_suite(specs, options));
  }
  state.SetLabel(shared ? "shared_pool_4" : "serial");
  state.SetItemsProcessed(state.iterations() * (3 * 2 + 2));
}
BENCHMARK(BM_SuiteSharedPool)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// The serving daemon's cached-hit request path over the in-memory
// transport: request framing, reactor dispatch, the checked summary read,
// and response framing — everything but the wire. This is the per-request
// overhead a warm `cloudrepro fetch` pays on top of the network. Arg 0
// ships the spec inline (the server parses and hashes it per request);
// arg 1 names a registry spec, whose hash the server computed once at
// construction.
void BM_ServeRequest(benchmark::State& state) {
  namespace fs = std::filesystem;
  const bool by_name = state.range(0) != 0;
  const fs::path root = fs::temp_directory_path() / "cloudrepro-bench-serve";
  fs::remove_all(root);
  {
    obs::MetricsRegistry metrics;
    scenario::ResultStore store{root, &metrics};
    scenario::ScenarioSpec spec;
    spec.name = "bench-serve";
    spec.workloads = {{"hibench", "TS", std::nullopt}};
    spec.budgets = {5000.0};
    spec.repetitions = 2;
    scenario::RunOptions run;
    run.store = &store;
    (void)scenario::run_scenario(spec, run);  // Warm: every GET below hits.

    scenario::ScenarioRegistry registry;
    registry.add(spec);
    serve::ServeOptions options;
    options.registry = &registry;
    serve::ServerCore core{store, metrics, options};
    auto [client_end, server_end] = serve::make_memory_pair();
    core.add_connection(std::move(server_end));

    const std::string frame =
        (by_name ? serve::get_request_frame_by_name(spec.name, std::nullopt)
                 : serve::get_request_frame(spec, std::nullopt)) +
        "\n";
    serve::FrameDecoder decoder{1u << 20};
    char buffer[4096];
    std::string response;
    for (auto _ : state) {
      (void)client_end->write(frame);
      bool got = false;
      while (!got) {
        core.poll_once();
        for (;;) {
          const auto r = client_end->read(buffer, sizeof buffer);
          if (r.status != serve::IoStatus::kOk) break;
          decoder.push(std::string_view{buffer, r.bytes});
          if (decoder.next(response) == serve::FrameDecoder::Status::kFrame) {
            got = true;
            break;
          }
        }
      }
      benchmark::DoNotOptimize(response.data());
    }
  }
  fs::remove_all(root);
  state.SetLabel(by_name ? "by_name" : "inline_spec");
}
BENCHMARK(BM_ServeRequest)->Arg(0)->Arg(1);

// The client's half of a warm `cloudrepro fetch`: `parse_response` on the
// GET frame the server sends for a real registry summary (parse the frame,
// re-canonicalise the summary member). Arg 0 is fig16-hibench-budget's
// summary (~6 KB), arg 1 fig17-tpcds-budget's (~25 KB); BM_ServeRequest's
// two-repetition toy summary is too small to show this cost.
void BM_FetchDecode(benchmark::State& state) {
  const char* name = state.range(0) == 0 ? "fig16-hibench-budget" : "fig17-tpcds-budget";
  const auto& spec = scenario::ScenarioRegistry::builtin().at(name);
  const std::string summary = scenario::run_scenario(spec, {}).summary;
  const std::string frame =
      serve::get_response(spec.content_hash(), spec.seed, "hit", summary);
  for (auto _ : state) {
    const serve::Response response = serve::parse_response(frame);
    benchmark::DoNotOptimize(response.summary.data());
  }
  if (serve::parse_response(frame).summary != summary) {
    state.SkipWithError("decoded summary differs from the served bytes");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * frame.size()));
  state.SetLabel(name);
}
BENCHMARK(BM_FetchDecode)->Arg(0)->Arg(1);

void BM_MedianCi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng{4};
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal(100.0, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::median_ci(xs));
  }
}
BENCHMARK(BM_MedianCi)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
