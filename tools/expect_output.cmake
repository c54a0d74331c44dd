# Runs `${TOOL} ${ARGS}` and fails unless it exits with EXPECT_RC and its
# output (stdout, then stderr) contains the text EXPECT.
#
#   cmake -DTOOL=build/tools/sttsv "-DARGS=auto --budget 14 --n 240" \
#         -DEXPECT_RC=0 "-DEXPECT=family = boolean" -P expect_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, expected ${EXPECT_RC}\n"
                      "${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: output lacks '${EXPECT}':\n"
                      "${out}${err}")
endif()
