# Passes when EXE, run with the space-separated ARGS, exits non-zero and its
# stderr matches the regular expression EXPECT:
#   cmake -DEXE=<path> -DARGS="<args>" -DEXPECT=<regex> -P expect_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit from: ${EXE} ${ARGS}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
