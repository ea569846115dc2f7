# A usage error ends a bench or tool with exit status 2 and a stderr
# line that says what was wrong: never an abort, never a run.
#
#   cmake -DCASES=<file> -DWORK_DIR=<dir> -P usage_errors.cmake
#
# Each line of CASES is one run, its fields separated by tabs:
#
#   <NAME=VALUE or -> <text stderr must contain> <binary> [args...]
#
# The first field is set in the environment of that run only. Every
# SLIPSTREAM_* variable is cleared first and the size is pinned to
# test, so a binary that wrongly starts its run finishes it quickly.

execute_process(COMMAND ${CMAKE_COMMAND} -E environment
                OUTPUT_VARIABLE env_dump)
string(REGEX MATCHALL "(^|\n)SLIPSTREAM_[A-Za-z0-9_]*=" knobs
       "${env_dump}")
foreach(knob IN LISTS knobs)
    string(REGEX REPLACE "^\n?(.*)=$" "\\1" name "${knob}")
    unset(ENV{${name}})
endforeach()
set(ENV{SLIPSTREAM_BENCH_SIZE} test)
set(ENV{SLIPSTREAM_JOBS} 1)

file(MAKE_DIRECTORY "${WORK_DIR}")
file(STRINGS "${CASES}" cases)
set(failures 0)
foreach(line IN LISTS cases)
    string(REPLACE "\t" ";" fields "${line}")
    list(POP_FRONT fields assignment expected binary)
    set(env_args "")
    if(NOT assignment STREQUAL "-")
        set(env_args "${assignment}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${env_args}
                            "${binary}" ${fields}
                    WORKING_DIRECTORY "${WORK_DIR}"
                    OUTPUT_QUIET
                    ERROR_VARIABLE stderr
                    RESULT_VARIABLE status)
    string(FIND "${stderr}" "${expected}" at)
    get_filename_component(name "${binary}" NAME)
    if(NOT status STREQUAL "2" OR at EQUAL -1)
        message(SEND_ERROR "${name} ${fields} (${assignment}): exit "
                "'${status}', want 2 and stderr containing "
                "\"${expected}\"; stderr was:\n${stderr}")
        math(EXPR failures "${failures} + 1")
    else()
        message(STATUS "ok: ${name} ${fields} (${assignment})")
    endif()
endforeach()
if(failures GREATER 0)
    message(FATAL_ERROR "${failures} usage error(s) not reported with "
            "exit status 2")
endif()
