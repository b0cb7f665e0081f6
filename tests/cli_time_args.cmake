# Both binaries must reject a --time value that is not a finite number
# >= 0 with exit code 4 (invalid argument), and relkit_cli must accept a
# valid one. Run as
#   cmake -DCLI=<relkit_cli> -DSERVE=<relkit_serve> -DMODEL=<model>
#         -P cli_time_args.cmake
# The daemon never gets to serve: a bad --time fails argument parsing, and
# the timeout turns a daemon that accepted the value into a failure.

function(expect_exit code)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc TIMEOUT 30
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "expected exit ${code}, got '${rc}': ${ARGN}")
  endif()
endfunction()

foreach(bad abc -1 inf)
  expect_exit(4 ${CLI} ${MODEL} --time ${bad})
  expect_exit(4 ${CLI} ${MODEL} --time 100 ${bad})
  expect_exit(4 ${SERVE} --port 0 --time ${bad})
endforeach()
expect_exit(0 ${CLI} ${MODEL} --time 100)
