# Runs `${BENCH}` argument-free (its full mode) in a fresh `${DIR}`, then
# `${CHECKER}` on the BENCH_${NAME}.json it wrote there, and fails unless
# both exit 0: every exact field must equal the committed copy's.
#
#   cmake -DBENCH=build/bench/bench_hierarchy -DNAME=hierarchy \
#         -DDIR=build/golden/hierarchy -DPYTHON=python3 \
#         -DCHECKER=tools/check_bench_golden.py -P check_golden.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
  message(FATAL_ERROR "${BENCH}: exit ${rc}\n${out}${err}")
endif()
execute_process(COMMAND "${PYTHON}" "${CHECKER}" "BENCH_${NAME}.json"
  WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
  message(FATAL_ERROR "BENCH_${NAME}.json differs from the committed copy:\n"
                      "${out}${err}")
endif()
message(STATUS "${out}")
