# Runs `${BINARY} --port=70000` and fails unless it exits with code 2
# within 5 s and names the bad flag on stderr.
#   cmake -DBINARY=path/to/ppc_router -P expect_port_rejected.cmake
execute_process(COMMAND ${BINARY} --port=70000
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 5)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "${BINARY} --port=70000: exit '${code}', want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "bad --port")
  message(FATAL_ERROR "${BINARY} --port=70000: stderr lacks 'bad --port': "
                      "${err}")
endif()
message(STATUS "${BINARY} rejected --port=70000: ${err}")
