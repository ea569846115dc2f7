# bench_diff --check on the fixtures beside this file, gating the
# `vs_func` entries at 15%: each case must exit with its own code.
#
#   cmake -DBENCH_DIFF=<binary> -P check.cmake
#
#   within_tolerance  every gated entry within 15%; an ungated entry
#                     regressed and a new entry appeared        -> 0
#   regressed         a gated entry 20% worse                   -> 1
#   missing_gated     a gated entry gone from the new file      -> 1
#   missing_ungated   only an ungated entry gone                -> 0

function(expect_exit want new)
    execute_process(
        COMMAND "${BENCH_DIFF}" "${CMAKE_CURRENT_LIST_DIR}/baseline.json"
                "${CMAKE_CURRENT_LIST_DIR}/${new}.json"
                --check --tolerance 15 --filter vs_func
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE status)
    if(NOT status EQUAL want)
        message(FATAL_ERROR
                "${new}: bench_diff exited ${status}, want ${want}\n"
                "${out}${err}")
    endif()
endfunction()

expect_exit(0 within_tolerance)
expect_exit(1 regressed)
expect_exit(1 missing_gated)
expect_exit(0 missing_ungated)
