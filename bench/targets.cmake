# One binary per reproduced table / figure / in-text claim; see the
# per-experiment index in DESIGN.md. Each prints the paper's rows alongside
# the regenerated/measured values and exits non-zero if the shape is off.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ holds ONLY the benchmark binaries — `for b in build/bench/*`
# must not trip over CMake bookkeeping files.
function(mh_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE mh_apps mh_data mh_batch mh_sim
                        mh_survey)
  set_target_properties(${name} PROPERTIES
                        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mh_add_bench(bench_fig1_architecture)    # F1
mh_add_bench(bench_fig2_integration)     # F2
mh_add_bench(bench_table1_proficiency)   # T1
mh_add_bench(bench_table2_time)          # T2
mh_add_bench(bench_table3_helpfulness)   # T3
mh_add_bench(bench_table4_level)         # T4
mh_add_bench(bench_table5_outcomes)      # T5
mh_add_bench(bench_combiner_tradeoff)    # C1
mh_add_bench(bench_airline_variants)     # C2
mh_add_bench(bench_sidedata)             # C3
mh_add_bench(bench_serial_vs_hdfs)       # C4
mh_add_bench(bench_staging)              # C5
mh_add_bench(bench_restart_recovery)     # C6
mh_add_bench(bench_deadline_collapse)    # C7
mh_add_bench(bench_ghost_daemons)        # C8
mh_add_bench(bench_speculation)          # ablation: straggler mitigation

# Tentpole perf benchmark: seed vector collect+sort vs arena MapOutputBuffer.
add_executable(bench_sort_spill ${CMAKE_SOURCE_DIR}/bench/bench_sort_spill.cpp)
target_link_libraries(bench_sort_spill PRIVATE mh_mapreduce)
set_target_properties(bench_sort_spill PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Tentpole perf benchmark: seed copy read path vs zero-copy views vs
# short-circuit local reads, plus WordCount end-to-end off/on.
add_executable(bench_data_path ${CMAKE_SOURCE_DIR}/bench/bench_data_path.cpp)
target_link_libraries(bench_data_path PRIVATE mh_mapreduce mh_apps)
set_target_properties(bench_data_path PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Tentpole perf benchmark: codec micro-throughput, compressed short-circuit
# reads vs the copying RPC path, and seams-off/on end-to-end jobs.
add_executable(bench_compression
               ${CMAKE_SOURCE_DIR}/bench/bench_compression.cpp)
target_link_libraries(bench_compression PRIVATE mh_mapreduce mh_apps mh_data)
set_target_properties(bench_compression PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Tentpole observability benchmark: disabled-tracing fast-path gate,
# traced-vs-untraced WordCount, connected-tree/critical-path gates, and the
# trace.json / critical_path.txt / metrics_timeseries.jsonl artifacts.
add_executable(bench_trace ${CMAKE_SOURCE_DIR}/bench/bench_trace.cpp)
target_link_libraries(bench_trace PRIVATE mh_mapreduce mh_apps)
set_target_properties(bench_trace PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Engine micro-benchmarks on google-benchmark.
add_executable(bench_microbench ${CMAKE_SOURCE_DIR}/bench/bench_microbench.cpp)
target_link_libraries(bench_microbench PRIVATE mh_hdfs mh_mapreduce mh_apps
                      mh_data benchmark::benchmark)
set_target_properties(bench_microbench PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Tentpole durability benchmark: edit-log journal rate, full-journal replay,
# checkpoint latency, and kill-9 restart recovery at the 1M-file scale.
add_executable(bench_namenode_restart
               ${CMAKE_SOURCE_DIR}/bench/bench_namenode_restart.cpp)
target_link_libraries(bench_namenode_restart PRIVATE mh_hdfs)
set_target_properties(bench_namenode_restart PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Tentpole perf benchmark: slowstart off vs on for a slow-map zipfian
# WordCount — wall-clock speedup, byte-identical outputs, and the shuffle's
# shrinking critical-path share.
add_executable(bench_pipelined_shuffle
               ${CMAKE_SOURCE_DIR}/bench/bench_pipelined_shuffle.cpp)
target_link_libraries(bench_pipelined_shuffle PRIVATE mh_mapreduce mh_apps)
set_target_properties(bench_pipelined_shuffle PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
