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
    # Smoke run: an argument the bench does not take must be a fatal
    # diagnostic that names it, before any [bench] line (job count,
    # bundle load) or cell.
    add_test(NAME ${name}_rejects_no_such_flag
             COMMAND ${name} --no-such-flag)
    set_tests_properties(${name}_rejects_no_such_flag PROPERTIES
        PASS_REGULAR_EXPRESSION "unknown argument '--no-such-flag'"
        FAIL_REGULAR_EXPRESSION "\\[bench\\]"
        TIMEOUT 60)
endfunction()

dora_add_bench(fig01_interference_loadtime)
dora_add_bench(fig02_interference_cost)
dora_add_bench(fig03_fopt_tradeoff)
dora_add_bench(fig05_model_accuracy)
dora_add_bench(fig06_fopt_sensitivity)
dora_add_bench(fig07_governor_summary)
# Smoke run: an argument fig07 does not take (such as the retired
# --workers) must be a fatal diagnostic that names it, before the
# bundle loads or any cell runs.
add_test(NAME fig07_rejects_unknown_argument
         COMMAND fig07_governor_summary --workers 2)
set_tests_properties(fig07_rejects_unknown_argument PROPERTIES
    PASS_REGULAR_EXPRESSION "unknown argument '--workers'"
    FAIL_REGULAR_EXPRESSION "\\[bench\\]"
    TIMEOUT 60)
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
