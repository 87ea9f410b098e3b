# Runs BENCH with ARGS ("|"-separated) in the empty directory DIR and
# passes only when the bench exits non-zero and leaves DIR empty: a flag
# the bench does not accept must stop it before it writes its JSON file
# or trajectory row.
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" " " shown "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
  WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${shown} exited 0:\n${out}${err}")
endif()
file(GLOB_RECURSE left "${DIR}/*")
if(left)
  message(FATAL_ERROR "${BENCH} ${shown} wrote ${left}")
endif()
message(STATUS "exit ${rc}: ${err}")
