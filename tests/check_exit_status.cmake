# Run one binary with one argument and require an exit status:
#
#   cmake -DBIN=<binary> -DARG=<argument> -DEXPECT=<status>
#         -P check_exit_status.cmake
#
# A crash (an abort, say) reports a signal instead of a number and fails.
execute_process(COMMAND "${BIN}" "${ARG}"
                RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_QUIET)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARG}: exit status '${status}', "
                      "expected ${EXPECT}")
endif()
