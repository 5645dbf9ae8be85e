# Runs `${CLI} ${ARGS}` and requires exit status 1 with `${EXPECT}` on
# stderr. ARGS is one space-separated string.
#   cmake -DCLI=path -DARGS="--rounds 0" -DEXPECT=--rounds -P expect_cli_error.cmake
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${argv}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${status}'\nstderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${EXPECT}': ${err}")
endif()
