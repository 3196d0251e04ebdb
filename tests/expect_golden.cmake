# Runs `${BINARY}` and fails unless its stdout equals the file `${GOLDEN}`
# byte for byte. The run's stdout is kept in `${ACTUAL}` so a failure can
# be inspected with `diff ${GOLDEN} ${ACTUAL}`.
#   cmake -DBINARY=... -DGOLDEN=... -DACTUAL=... -P expect_golden.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND ${BINARY}
                RESULT_VARIABLE code
                OUTPUT_FILE ${ACTUAL}
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${BINARY}: exit '${code}', want 0\nstderr: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs STREQUAL "0")
  file(READ ${ACTUAL} out)
  message(FATAL_ERROR "${BINARY}: stdout differs from ${GOLDEN}\n"
                      "see: diff ${GOLDEN} ${ACTUAL}\nstdout:\n${out}")
endif()
message(STATUS "${BINARY}: stdout matches ${GOLDEN}")
