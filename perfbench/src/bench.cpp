#include "bench.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <numeric>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "bigdata/cluster.h"
#include "bigdata/engine.h"
#include "cloud/instances.h"
#include "faults/fault_plan.h"
#include "scenario/result_store.h"
#include "scenario/sha256.h"
#include "simnet/qos.h"
#include "stats/rng.h"

namespace perfbench {

namespace scenario = cloudrepro::scenario;

Inputs make_inputs(std::uint64_t seed, std::size_t clients) {
  const auto& registry = scenario::ScenarioRegistry::builtin();
  Inputs inputs;
  inputs.seed = seed;
  for (const char* suite : {"paper-figures", "extensions"}) {
    for (const auto& name : registry.suite(suite)) {
      ScenarioSpec spec = registry.at(name);
      if (spec.name == "fig13-confirm") {
        spec.confirm.enabled = true;
        spec.confirm.adaptive = true;
      }
      inputs.members.push_back(std::move(spec));
    }
  }

  cloudrepro::stats::Rng rng{seed};
  const auto draw_set = [&] {
    std::vector<std::uint64_t> set;
    // Kept below 2^31 so every seed survives any JSON number path exactly.
    for (std::size_t m = 0; m < inputs.members.size(); ++m) {
      set.push_back(1 + rng.next_u64() % 2'000'000'000ULL);
    }
    return set;
  };
  std::vector<std::uint64_t> defaults;
  for (const auto& spec : inputs.members) defaults.push_back(spec.seed);
  inputs.seed_sets.push_back(std::move(defaults));
  for (std::size_t s = 1; s < kSeedSets; ++s) inputs.seed_sets.push_back(draw_set());

  for (std::size_t c = 0; c < clients; ++c) {
    std::vector<Fetch> mix(kKeyMixLength);
    for (auto& f : mix) {
      f.member = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(inputs.members.size()) - 1));
      f.seed_set = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kSeedSets) - 1));
      f.by_hash = rng.bernoulli(0.5);
    }
    inputs.key_mix.push_back(std::move(mix));
  }
  for (std::size_t k = 0; k < kColdSeedSets; ++k) inputs.cold_seed_sets.push_back(draw_set());
  return inputs;
}

std::string describe_inputs(const Inputs& inputs) {
  std::ostringstream out;
  out << "seed " << inputs.seed << '\n';
  for (const auto& spec : inputs.members) out << spec.canonical_json() << '\n';
  for (const auto* sets : {&inputs.seed_sets, &inputs.cold_seed_sets}) {
    for (const auto& set : *sets) {
      for (const auto seed : set) out << seed << ' ';
      out << '\n';
    }
  }
  for (const auto& mix : inputs.key_mix) {
    for (const auto& f : mix) out << f.member << '.' << f.seed_set << '.' << f.by_hash << ' ';
    out << '\n';
  }
  return out.str();
}

std::vector<ScenarioSpec> members_with(const Inputs& inputs,
                                       const std::vector<std::uint64_t>& seeds) {
  std::vector<ScenarioSpec> specs = inputs.members;
  for (std::size_t m = 0; m < specs.size(); ++m) specs[m].seed = seeds[m];
  return specs;
}

std::vector<ScenarioSpec> members_at(const Inputs& inputs, std::size_t set) {
  return members_with(inputs, inputs.seed_sets[set]);
}

const std::map<std::string, std::string>& pinned_summary_sha256() {
  static const std::map<std::string, std::string> pinned = {
      {"fig13-confirm",
       "caa75edc93affb05e38694f39f6a95fa7a2c86014b5f79dafedea5c7ef14e7eb"},
      {"fig15-terasort-budget",
       "9d4126e502e4eda8e03152aea393170526a03f5e7ae124522b98ef4bf018b828"},
      {"fig16-hibench-budget",
       "b7e52f9e086ec27ca456d1ea86570d6e966c1f30487258a2e9f04502ce3d3abf"},
      {"fig17-tpcds-budget",
       "7c6debf1073c0f2325bc745a70b6d08f3b8b71fd25fdbb8c17febdb01595800f"},
      {"fig18-straggler",
       "23ddbebe1550c648fedf56bdd9a8bcf522fde85ccab20b7f6c5ac599dee858ce"},
      {"fig19-budget-depletion",
       "3a885e7fbd5afab6af38f4fb9afce0e9e241db5d402efe879feb990a1e4a4354"},
      {"table4-setup",
       "9e470c247f66e21103c648b362077ac7c81568fac51da29c77d18c4bd2a57787"},
      {"tpch-budget",
       "860f9cb3d6c089dd970983c2fdd0552ec6612f36476dabd011727db7896da36e"},
      {"fault-mitigation",
       "6cd17044b106f18f3caccc130c9b88c34826a3c8fdfb256a2035c8d61a248639"},
  };
  return pinned;
}

Pass run_pass(const std::vector<ScenarioSpec>& specs, int threads,
              cloudrepro::io::Vfs& vfs, const std::filesystem::path& root,
              cloudrepro::obs::MetricsRegistry* metrics) {
  scenario::ResultStore store{root, metrics, &vfs};
  scenario::RunOptions options;
  options.threads = threads;
  options.store = &store;
  options.vfs = &vfs;
  options.metrics = metrics;

  Pass pass;
  pass.member_done_s.resize(specs.size());
  const auto start = std::chrono::steady_clock::now();
  auto suite = scenario::run_suite(specs, options,
                                   [&](std::size_t i, const scenario::ScenarioRunResult&) {
                                     pass.member_done_s[i] = seconds_since(start);
                                   });
  pass.wall_s = seconds_since(start);
  for (auto& member : suite.members) {
    pass.jobs += member.executed_measurements;
    pass.summaries.push_back(member.complete ? member.summary : std::string{});
  }
  pass.results = std::move(suite.members);
  return pass;
}

void check_pass(const Pass& pass, const std::vector<std::string>& expected, Tally& tally) {
  for (std::size_t m = 0; m < expected.size(); ++m) {
    tally.record(m < pass.summaries.size() && !expected[m].empty() &&
                 pass.summaries[m] == expected[m]);
  }
}

std::vector<std::string> check_pinned(const std::vector<ScenarioSpec>& members,
                                      const std::vector<std::string>& summaries,
                                      Tally& tally) {
  const auto& pinned = pinned_summary_sha256();
  std::vector<std::string> mismatches;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const auto it = pinned.find(members[m].name);
    const std::string digest =
        m < summaries.size() ? scenario::sha256_hex(summaries[m]) : std::string{};
    const bool ok = it != pinned.end() && it->second == digest;
    tally.record(ok);
    if (!ok) mismatches.push_back(members[m].name + " " + digest);
  }
  return mismatches;
}

namespace {

// Mirrors the scenario runner's per-repetition cell body (build_cells):
// cluster first, then the fault plan, both from the repetition's stream.
cloudrepro::bigdata::Cluster make_cluster(scenario::CloudModel model,
                                          const scenario::ClusterSpec& spec,
                                          cloudrepro::stats::Rng& rng) {
  namespace bigdata = cloudrepro::bigdata;
  namespace cloud = cloudrepro::cloud;
  switch (model) {
    case scenario::CloudModel::kUniformTokenBucket: {
      const auto bucket = *cloud::ec2_c5_xlarge().nominal_bucket();
      const cloudrepro::simnet::TokenBucketQos proto{bucket};
      return bigdata::Cluster::uniform(spec.nodes, spec.cores_per_node, proto,
                                       spec.line_rate_gbps);
    }
    case scenario::CloudModel::kEc2:
      return bigdata::Cluster::from_cloud(spec.nodes, spec.cores_per_node,
                                          cloud::ec2_c5_xlarge(), rng);
    case scenario::CloudModel::kGce:
      return bigdata::Cluster::from_cloud(spec.nodes, spec.cores_per_node,
                                          cloud::gce_8core(), rng);
    case scenario::CloudModel::kHpcCloud:
      return bigdata::Cluster::from_cloud(spec.nodes, spec.cores_per_node,
                                          cloud::hpccloud_8core(), rng);
  }
  throw std::logic_error{"make_cluster: unreachable"};
}

cloudrepro::faults::FaultPlanConfig fault_config(const scenario::FaultSpec& spec) {
  cloudrepro::faults::FaultPlanConfig config;
  config.horizon_s = spec.horizon_s;
  config.crash_rate_per_hour = spec.crash_rate_per_hour;
  config.revocation_rate_per_hour = spec.revocation_rate_per_hour;
  config.slowdown_rate_per_hour = spec.slowdown_rate_per_hour;
  config.flap_rate_per_hour = spec.flap_rate_per_hour;
  config.theft_rate_per_hour = spec.theft_rate_per_hour;
  return config;
}

}  // namespace

EngineDrive drive_engine(const ScenarioSpec& spec,
                         const cloudrepro::core::CampaignResult& campaign,
                         cloudrepro::obs::MetricsRegistry* metrics) {
  namespace bigdata = cloudrepro::bigdata;
  EngineDrive drive;
  std::size_t cell = 0;
  for (const auto& ref : spec.workloads) {
    const bigdata::WorkloadProfile& profile = scenario::resolve_workload(ref);
    const scenario::CloudModel model = ref.cloud.value_or(spec.cluster.model);
    for (std::size_t t = 0; t < spec.treatment_count(); ++t, ++cell) {
      const double budget = spec.budgets.empty() ? -1.0 : spec.budgets[t];
      const auto& values = campaign.cells.at(cell).values;
      for (std::size_t r = 0; r < values.size(); ++r) {
        cloudrepro::stats::Rng rng{cloudrepro::core::campaign_repetition_seed(
            campaign.seed, cell, static_cast<int>(r))};
        auto cluster = make_cluster(model, spec.cluster, rng);
        if (budget >= 0.0) cluster.set_token_budgets(budget);
        bigdata::EngineOptions options;
        options.partition_skew = spec.engine.partition_skew;
        options.stable_partitioning = spec.engine.stable_partitioning;
        options.machine_noise_cv = spec.engine.machine_noise_cv;
        options.speculation.enabled = spec.engine.speculation;
        if (spec.faults.enabled) {
          options.fault_plan = cloudrepro::faults::FaultPlan::sample(
              fault_config(spec.faults), cluster.node_count(), rng);
        }
        options.metrics = metrics;
        bigdata::SparkEngine engine{options};
        const double runtime = engine.run(profile, cluster, rng).runtime_s;
        ++drive.jobs;
        if (std::memcmp(&runtime, &values[r], sizeof runtime) != 0) drive.exact = false;
      }
    }
  }
  return drive;
}

scenario::ScenarioRegistry member_registry(const Inputs& inputs) {
  scenario::ScenarioRegistry registry;
  for (const auto& spec : inputs.members) registry.add(spec);
  return registry;
}

void fetch_and_check(cloudrepro::serve::FetchClient& client, const Inputs& inputs,
                     const std::vector<std::vector<std::string>>& expected,
                     const std::vector<std::string>& hashes, const Fetch& f,
                     Tally& tally) {
  bool ok = false;
  try {
    const std::uint64_t seed = inputs.seed_sets[f.seed_set][f.member];
    const auto response = f.by_hash
                              ? client.get_by_hash(hashes[f.member], seed)
                              : client.get_by_name(inputs.members[f.member].name, seed);
    ok = response.ok && response.summary == expected[f.seed_set][f.member];
  } catch (const std::exception&) {
    ok = false;
  }
  tally.record(ok);
}

namespace {

/// A single random cycle through `size` slots: next[i] is i's successor.
std::vector<std::uint32_t> random_cycle(std::uint32_t size) {
  std::vector<std::uint32_t> order(size);
  std::iota(order.begin(), order.end(), 0U);
  cloudrepro::stats::Rng rng{12345};
  for (std::uint32_t i = size - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  std::vector<std::uint32_t> next(size);
  for (std::uint32_t i = 0; i < size; ++i) next[order[i]] = order[(i + 1) % size];
  return next;
}

volatile std::uint64_t kernel_sink = 0;

}  // namespace

std::uint64_t reference_kernel() {
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, double> state;
  std::uint64_t lcg = 77;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(lcg >> 11) * 0x1.0p-53;
  };
  for (std::uint32_t id = 0; id < 4096; ++id) queue.push({next(), id});
  double acc = 0.0;
  std::uint64_t order = 0;
  for (int k = 0; k < 60000; ++k) {
    const auto [t, id] = queue.top();
    queue.pop();
    double& v = state[id * 2654435761U % 50000];
    v = v * 0.5 + std::log1p(t) + std::sqrt(t + 1.0);
    acc += v;
    order = order * 31 + id;
    queue.push({t + next(), id});
  }
  static const std::vector<std::uint32_t> cycle = random_cycle(1U << 18);
  std::uint32_t j = 0;
  for (int i = 0; i < 200000; ++i) j = cycle[j];
  return order ^ std::bit_cast<std::uint64_t>(acc) ^ j;
}

HostSpeed::HostSpeed() { kernel_sink = reference_kernel(); }  // Builds the cycle, untimed.

void HostSpeed::sample() {
  const auto start = std::chrono::steady_clock::now();
  kernel_sink = reference_kernel();
  total_s_ += seconds_since(start);
  ++samples_;
}

double HostSpeed::factor() const {
  if (samples_ == 0) throw std::logic_error{"HostSpeed::factor before any sample"};
  return kNominalS * static_cast<double>(samples_) / total_s_;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace perfbench
