# Run one binary with one argument and require an exit status:
#
#   cmake -DBIN=<binary> -DARG=<argument> -DEXPECT=<status>
#         -P check_exit_status.cmake
#
# A crash (an abort, say) reports a signal instead of a number and fails.
# Status 2, a rejected command line, must come with the usage on stderr.
execute_process(COMMAND "${BIN}" "${ARG}"
                RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARG}: exit status '${status}', "
                      "expected ${EXPECT}")
endif()
if(EXPECT STREQUAL "2" AND NOT stderr MATCHES "usage: ")
  message(FATAL_ERROR "${BIN} ${ARG}: exit status 2 without the usage")
endif()
