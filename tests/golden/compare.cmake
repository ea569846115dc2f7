# Run one bench and diff its stdout against a committed capture. The
# wall-clock figure in the "[name] <t> s wall, ..." footer is the only
# part masked; the simulated-cycle total beside it stays.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<capture.txt> -DWORK_DIR=<dir>
#         [-DSIZE=test|small|default] [-DJOBS=<n>] -P compare.cmake
#
# Every SLIPSTREAM_* variable is cleared first, then the size and the
# worker count are pinned, so the tables depend on the code alone.
# The goldens under tests/golden/ are captured at the defaults (test
# size, one job); results/*.txt at the size their banner names with
# four jobs. The banner and the footer print the job count, so a
# capture is compared at the count it was taken with.

if(NOT DEFINED SIZE)
    set(SIZE test)
endif()
if(NOT DEFINED JOBS)
    set(JOBS 1)
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E environment
                OUTPUT_VARIABLE env_dump)
string(REGEX MATCHALL "(^|\n)SLIPSTREAM_[A-Za-z0-9_]*=" knobs
       "${env_dump}")
foreach(knob IN LISTS knobs)
    string(REGEX REPLACE "^\n?(.*)=$" "\\1" name "${knob}")
    unset(ENV{${name}})
endforeach()
set(ENV{SLIPSTREAM_BENCH_SIZE} ${SIZE})
set(ENV{SLIPSTREAM_JOBS} ${JOBS})

file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
string(REGEX REPLACE "(\n\\[[a-z0-9_]+\\]) [^ ]+ s wall,"
       "\\1 <wall> s wall," actual "${actual}")

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    set(actual_file "${WORK_DIR}/actual.txt")
    file(WRITE "${actual_file}" "${actual}")
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${actual_file}")
    endif()
    message(FATAL_ERROR "output differs from ${GOLDEN}; the new output "
            "is in ${actual_file} (copy it over the capture only for a "
            "deliberate timing-model change)")
endif()
