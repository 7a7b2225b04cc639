# One binary per reproduced table / figure / in-text claim; see the
# per-experiment index in DESIGN.md. Each prints the paper's rows alongside
# the regenerated/measured values and exits non-zero if the shape is off.
# Two more binaries sit beside them: bench_microbench (engine hot paths on
# google-benchmark, report-only) and bench_namenode_restart (the 1M-file
# journal/replay/restart scale test, gated). Fast-path gates live in ctest
# and shipping-code timings in perfbench/.
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

mh_add_bench(bench_microbench)
target_link_libraries(bench_microbench PRIVATE benchmark::benchmark)
mh_add_bench(bench_namenode_restart)
