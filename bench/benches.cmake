# Bench binaries land in ${CMAKE_BINARY_DIR}/bench so that
# `for b in build/bench/*; do $b; done` runs exactly the benches.
set(CLOUDREPRO_BENCH_DIR ${CMAKE_BINARY_DIR}/bench)

function(cloudrepro_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  target_link_libraries(${name} PRIVATE cloudrepro_core)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CLOUDREPRO_BENCH_DIR})
endfunction()

cloudrepro_bench(bench_table1_2_survey)
cloudrepro_bench(bench_fig01_survey)
cloudrepro_bench(bench_fig02_ballani)
cloudrepro_bench(bench_fig03_few_reps)
cloudrepro_bench(bench_fig04_hpccloud)
cloudrepro_bench(bench_fig05_gce)
cloudrepro_bench(bench_fig06_ec2)
cloudrepro_bench(bench_fig07_ec2_latency)
cloudrepro_bench(bench_fig08_gce_latency)
cloudrepro_bench(bench_fig09_retrans)
cloudrepro_bench(bench_fig10_traffic)
cloudrepro_bench(bench_fig11_token_bucket)
cloudrepro_bench(bench_fig12_write_size)
cloudrepro_bench(bench_fig13_confirm)
cloudrepro_bench(bench_fig14_emulator)
cloudrepro_bench(bench_table3_summary)
cloudrepro_bench(bench_table4_setup)
cloudrepro_bench(bench_fig15_terasort_budget)
cloudrepro_bench(bench_fig16_hibench_budget)
cloudrepro_bench(bench_fig17_tpcds_budget)
# These render catalog scenarios (src/scenario) instead of inline sweeps.
target_link_libraries(bench_fig13_confirm PRIVATE cloudrepro_scenario)
target_link_libraries(bench_table4_setup PRIVATE cloudrepro_scenario)
target_link_libraries(bench_fig16_hibench_budget PRIVATE cloudrepro_scenario)
target_link_libraries(bench_fig17_tpcds_budget PRIVATE cloudrepro_scenario)
cloudrepro_bench(bench_fig18_straggler)
cloudrepro_bench(bench_fig19_budget_depletion)
cloudrepro_bench(bench_ablation_fluid_vs_packet)
cloudrepro_bench(bench_ablation_replenish)
cloudrepro_bench(bench_ablation_skew)
cloudrepro_bench(bench_ablation_cpu_credits)
cloudrepro_bench(bench_ablation_stationarity)
cloudrepro_bench(bench_ablation_tcp_model)
cloudrepro_bench(bench_ablation_system_comparison)
cloudrepro_bench(bench_ablation_sensitivity)
cloudrepro_bench(bench_ablation_fault_mitigation)

cloudrepro_bench(bench_perf_micro)
# BM_SuiteSharedPool drives scenario::run_suite and BM_ServeRequest the
# serving daemon's reactor, so the micro binary links the scenario and serve
# layers on top of core.
target_link_libraries(bench_perf_micro PRIVATE cloudrepro_scenario cloudrepro_serve benchmark::benchmark)

# Perf trajectory: `cmake --build build --target bench-smoke` runs the
# campaign/fluid/suite/serve/fetch-decode/Spark-job microbenches and records
# machine-readable results in ${CMAKE_BINARY_DIR}/BENCH_campaign.json —
# commit-over-commit numbers come from diffing these files, not from
# eyeballing console output.
# Each arm is sampled five times in random interleaving and recorded as
# median/mean/stddev/cv aggregates: single samples drift with the host.
#
# Recording is Release-only: a debug-build JSON poisons the committed
# trajectory (google-benchmark stamps library_build_type, but the *repo*
# numbers would still be garbage). Override for local experiments with
# -DCLOUDREPRO_BENCH_ALLOW_NONRELEASE=ON.
set(CLOUDREPRO_BENCH_FILTER
    "BM_CampaignParallel|BM_FluidAggregateRate|BM_FluidAllToAll|BM_WeekLongTokenBucketProbe|BM_SuiteSharedPool|BM_ServeRequest|BM_FetchDecode|BM_SparkJob")
if(CMAKE_BUILD_TYPE STREQUAL "Release" OR CLOUDREPRO_BENCH_ALLOW_NONRELEASE)
  add_custom_target(bench-smoke
    COMMAND $<TARGET_FILE:bench_perf_micro>
            "--benchmark_filter=${CLOUDREPRO_BENCH_FILTER}"
            # library_build_type reflects the *system* libbenchmark package;
            # repo_build_type is the build the numbers actually came from.
            "--benchmark_context=repo_build_type=${CMAKE_BUILD_TYPE}"
            --benchmark_repetitions=5
            --benchmark_report_aggregates_only=true
            --benchmark_enable_random_interleaving=true
            --benchmark_out=${CMAKE_BINARY_DIR}/BENCH_campaign.json
            --benchmark_out_format=json
    DEPENDS bench_perf_micro
    COMMENT "Recording campaign/fluid perf microbenches to BENCH_campaign.json"
    VERBATIM)
else()
  add_custom_target(bench-smoke
    COMMAND ${CMAKE_COMMAND} -E echo
            "bench-smoke: refusing to record BENCH_campaign.json from a '${CMAKE_BUILD_TYPE}' build -- reconfigure with -DCMAKE_BUILD_TYPE=Release, or pass -DCLOUDREPRO_BENCH_ALLOW_NONRELEASE=ON to override."
    COMMAND ${CMAKE_COMMAND} -E false
    COMMENT "bench-smoke requires a Release build"
    VERBATIM)
endif()
