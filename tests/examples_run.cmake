# Every example runs to the end: exit status 0, and no verdict line
# that reads NO ("output correct:   NO — CORRUPTED", "outputs
# architecturally correct: NO", "detected:         NO (silent)").
#
#   cmake -DEXAMPLES=<binary>|<binary>... -DWORK_DIR=<dir> -P examples_run.cmake

string(REPLACE "|" ";" examples "${EXAMPLES}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(failures 0)
foreach(example IN LISTS examples)
    execute_process(COMMAND "${example}"
                    WORKING_DIRECTORY "${WORK_DIR}"
                    OUTPUT_VARIABLE stdout
                    ERROR_VARIABLE stderr
                    RESULT_VARIABLE status)
    get_filename_component(name "${example}" NAME)
    if(NOT status EQUAL 0)
        message("${name}: exit status ${status}\n${stderr}")
        math(EXPR failures "${failures} + 1")
    endif()
    string(REGEX MATCHALL "[^\n]*: +NO[^\n]*" verdicts "${stdout}")
    if(verdicts)
        string(REPLACE ";" "\n" verdicts "${verdicts}")
        message("${name}: a verdict reads NO\n${verdicts}")
        math(EXPR failures "${failures} + 1")
    endif()
endforeach()
if(failures GREATER 0)
    message(FATAL_ERROR "${failures} example check(s) failed")
endif()
