# A scenario that parses but that the runner rejects (a WRED bottleneck
# AQM without a core bottleneck to mount it on) must end l4span_run with
# "error: ..." on stderr and exit status 1, not an uncaught exception.
# Invoked as: cmake -D L4SPAN_RUN_EXE=<path> -D WORK_DIR=<dir> -P l4span_run_error.cmake
set(scenario ${WORK_DIR}/l4span_run_error.json)
file(WRITE ${scenario} [=[
{"schema": "l4span-scenario-v1", "family": "cell_flows", "duration_s": 1,
 "cell_flows": {"seeds": [1], "cell": {"bottleneck_aqm": "wred"},
                "flows": [{"cca": "prague"}]}}
]=])
execute_process(
    COMMAND ${L4SPAN_RUN_EXE} ${scenario} --jobs 1
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "l4span_run exited with ${rc}, expected 1; stderr:\n${err}")
endif()
if(NOT err MATCHES "error: cell_spec.bottleneck_aqm \"wred\" needs bottleneck_bps > 0")
    message(FATAL_ERROR "l4span_run did not name the rejected key; stderr:\n${err}")
endif()
