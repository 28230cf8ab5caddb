# Runs `stream_tool forest <n> <input>` and checks its exit status, and for
# a rejected stream that stderr names the offending "path:line:".
#
#   cmake -DTOOL=<stream_tool> -DN=<n> -DINPUT=<file> -DEXPECT_EXIT=<code>
#         [-DEXPECT_LINE=<line>] -P stream_tool_exit.cmake
execute_process(COMMAND ${TOOL} forest ${N} ${INPUT}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${code}: ${err}")
endif()
if(DEFINED EXPECT_LINE)
  string(FIND "${err}" "${INPUT}:${EXPECT_LINE}: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${INPUT}:${EXPECT_LINE}: ': ${err}")
  endif()
endif()
