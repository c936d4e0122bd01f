# Runs one command and checks its exit code and combined output:
#
#   cmake -DCMD=<exe> "-DARGS=<space-separated args>" -DEXPECT_CODE=<n>
#         [-DEXPECT_OUTPUT=<regex>] -P cli_check.cmake
#
# Used by the grist_run CLI ctest cases (apps/CMakeLists.txt).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
message("${out}")
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_CODE}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
