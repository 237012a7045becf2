# Run one example binary and require an exact exit code and a stderr
# pattern — for failure paths, where a plain CTest would accept any
# non-zero exit (a crash included).
#
#   cmake -DBIN=<binary> "-DARGS=<space-separated args>" -DEXPECT_EXIT=<code>
#         "-DEXPECT_STDERR=<regex>" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "${BIN} exited with '${code}', expected ${EXPECT_EXIT}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
    "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
