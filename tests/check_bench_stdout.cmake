# Compare one figure bench's --scale=bench --deterministic stdout with its
# golden under tests/golden/bench/:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden file> -DACTUAL=<output file>
#         -P check_bench_stdout.cmake
#
# On a mismatch the new output is written to ACTUAL for diffing and the
# test fails. With TAHOE_UPDATE_GOLDENS set, the golden is rewritten
# instead.
execute_process(COMMAND "${BENCH}" --scale=bench --deterministic
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
if(DEFINED ENV{TAHOE_UPDATE_GOLDENS})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "golden ${GOLDEN} updated")
  return()
endif()
if(NOT EXISTS "${GOLDEN}")
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "missing golden ${GOLDEN} (run with "
                      "TAHOE_UPDATE_GOLDENS=1 to capture); output in ${ACTUAL}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "the new output is in ${ACTUAL}")
endif()
