# Runs one example binary and requires its stdout to equal an expected
# file byte for byte. Run as
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<file> -P example_output.cmake
# The 30 s timeout turns a solver that no longer finishes into a failure.

execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                TIMEOUT 30)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${EXAMPLE} exited with '${rc}'")
endif()
file(READ ${EXPECTED} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "${EXAMPLE} output differs from ${EXPECTED}:\n${out}")
endif()
