# Bench targets are defined from the top-level CMakeLists (via include)
# so that ${CMAKE_BINARY_DIR}/bench contains ONLY the bench binaries --
# the documented way to run them is `for b in build/bench/*; do $b; done`.
function(dora_add_bench name)
    add_executable(${name} bench/${name}.cc)
    target_link_libraries(${name} PRIVATE dora_harness)
    target_include_directories(${name} PRIVATE
        ${CMAKE_SOURCE_DIR}/bench)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

dora_add_bench(fig01_interference_loadtime)
dora_add_bench(fig02_interference_cost)
dora_add_bench(fig03_fopt_tradeoff)
dora_add_bench(fig05_model_accuracy)
dora_add_bench(fig06_fopt_sensitivity)
dora_add_bench(fig07_governor_summary)
dora_add_bench(fig08_per_workload)
dora_add_bench(fig09_complexity_interaction)
dora_add_bench(fig10_leakage_impact)
dora_add_bench(fig11_deadline_sweep)
dora_add_bench(tab02_device_spec)
dora_add_bench(tab03_classification)
dora_add_bench(abl_decision_interval)
dora_add_bench(ext_dynamic_interference)
dora_add_bench(abl_sampling_ratio)
dora_add_bench(abl_l2_replacement)
dora_add_bench(ext_fault_resilience)
dora_add_bench(ext_parallel_scaling)

dora_add_bench(fleet_rollout)
target_link_libraries(fleet_rollout PRIVATE dora_fleet)
# Smoke run: a misspelt flag must be a fatal diagnostic that names it,
# before the campaign (10k devices by default) starts.
add_test(NAME fleet_rollout_rejects_unknown_argument
         COMMAND fleet_rollout --fleet-governors interactive
                 --fleet-device 120)
set_tests_properties(fleet_rollout_rejects_unknown_argument PROPERTIES
    PASS_REGULAR_EXPRESSION "unknown argument '--fleet-device'"
    FAIL_REGULAR_EXPRESSION "fleet rollout:"
    TIMEOUT 60)

dora_add_bench(ovh_overhead)
target_link_libraries(ovh_overhead PRIVATE benchmark::benchmark)

dora_add_bench(ovh_hotpath)
target_link_libraries(ovh_hotpath PRIVATE benchmark::benchmark)

dora_add_bench(ovh_memsample)
target_link_libraries(ovh_memsample PRIVATE benchmark::benchmark)

dora_add_bench(ext_adaptive_accuracy)
