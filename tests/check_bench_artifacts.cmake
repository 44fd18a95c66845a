# Compare the SHA-256 digests of one bench's artifacts, its --report-json
# and --explain-out files, with its digest file under tests/golden/bench/:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<digest file> -DOUT_DIR=<directory>
#         [-DARGS=<bench arguments>] [-DWITH_STDOUT=ON]
#         [-DEXTRA_ARTIFACTS=<--flag=file ...>]
#         -P check_bench_artifacts.cmake
#
# ARGS is the bench's command line, split like a shell would; it defaults to
# the figure benches' "--scale=bench --deterministic". WITH_STDOUT adds the
# digest of the bench's stdout, as stdout.txt, for a bench whose printed
# table no bench_stdout.* golden pins. EXTRA_ARTIFACTS names more files the
# binary writes, each as the flag that writes it and the file's name, e.g.
# "--trace-out=trace.json --flight-out=flight.json": the flag is passed
# with the file in OUT_DIR, and the file must be written and is digested.
#
# The digests see every bit of every report and explain document, which
# the two-decimal tables of bench_stdout.* round away. The digest file has
# the layout of `sha256sum` output, so `sha256sum -c` in OUT_DIR reads it.
# On a match the artifacts are removed. On a mismatch they stay in OUT_DIR
# for diffing, next to their digests.sha256, and the test fails. With
# TAHOE_UPDATE_GOLDENS set, the digest file is rewritten instead.
if(NOT DEFINED ARGS)
  set(ARGS "--scale=bench --deterministic")
endif()
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
set(artifacts report.jsonl explain.jsonl)
set(extra_flags "")
set(extra_files "")
separate_arguments(extra_artifacts UNIX_COMMAND "${EXTRA_ARTIFACTS}")
foreach(extra ${extra_artifacts})
  if(NOT extra MATCHES "^(--[^=]+)=(.+)$")
    message(FATAL_ERROR "EXTRA_ARTIFACTS entry '${extra}' is not --flag=file")
  endif()
  list(APPEND extra_flags "${CMAKE_MATCH_1}=${OUT_DIR}/${CMAKE_MATCH_2}")
  list(APPEND extra_files "${CMAKE_MATCH_2}")
endforeach()
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${BENCH}" ${bench_args}
                        --report-json=${OUT_DIR}/report.jsonl
                        --explain-out=${OUT_DIR}/explain.jsonl
                        ${extra_flags}
                OUTPUT_FILE "${OUT_DIR}/stdout.txt"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
foreach(file ${extra_files})
  if(NOT EXISTS "${OUT_DIR}/${file}")
    message(FATAL_ERROR "${BENCH} did not write ${file}")
  endif()
endforeach()
list(APPEND artifacts ${extra_files})
if(WITH_STDOUT)
  list(APPEND artifacts stdout.txt)
endif()
set(actual "")
foreach(artifact ${artifacts})
  if(EXISTS "${OUT_DIR}/${artifact}")
    file(SHA256 "${OUT_DIR}/${artifact}" digest)
    string(APPEND actual "${digest}  ${artifact}\n")
  endif()
endforeach()
if(actual STREQUAL "")
  message(FATAL_ERROR "${BENCH} wrote neither a report nor an explain "
                      "document")
endif()
if(DEFINED ENV{TAHOE_UPDATE_GOLDENS})
  file(WRITE "${GOLDEN}" "${actual}")
  file(REMOVE_RECURSE "${OUT_DIR}")
  message(STATUS "digests ${GOLDEN} updated")
  return()
endif()
if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing digests ${GOLDEN} (run with "
                      "TAHOE_UPDATE_GOLDENS=1 to capture); artifacts in "
                      "${OUT_DIR}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${OUT_DIR}/digests.sha256" "${actual}")
  message(FATAL_ERROR "artifacts of ${BENCH} differ from ${GOLDEN}; the new "
                      "artifacts and their digests.sha256 are in ${OUT_DIR} "
                      "(sha256sum -c ${GOLDEN} there names the file)")
endif()
file(REMOVE_RECURSE "${OUT_DIR}")
