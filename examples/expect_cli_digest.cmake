# Runs `${CLI} ${ARGS} --csv ${OUT}/run.csv` and requires exit status 0 and
# a CSV whose SHA-256 is `${CSV_SHA256}`. When `${STATE_SHA256}` is given the
# run also writes `--final-state ${OUT}/run.bin` and its SHA-256 must match.
# ARGS is one space-separated string.
#   cmake -DCLI=path -DARGS="--algorithm FedAvg" -DOUT=dir -DCSV_SHA256=...
#         [-DSTATE_SHA256=...] -P expect_cli_digest.cmake
separate_arguments(argv UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
list(APPEND argv --csv "${OUT}/run.csv")
if(STATE_SHA256)
  list(APPEND argv --final-state "${OUT}/run.bin")
endif()
execute_process(COMMAND "${CLI}" ${argv}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "expected exit status 0, got '${status}'\nstderr: ${err}")
endif()

function(expect_digest file want)
  file(SHA256 "${file}" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${file}: SHA-256 ${got}, expected ${want}")
  endif()
endfunction()

expect_digest("${OUT}/run.csv" "${CSV_SHA256}")
if(STATE_SHA256)
  expect_digest("${OUT}/run.bin" "${STATE_SHA256}")
endif()
file(REMOVE_RECURSE "${OUT}")
