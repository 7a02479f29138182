# Builds one test target in a dedicated -DDFDB_SANITIZE=thread tree and runs
# it. Driven by the `*_tsan` ctest entries (CONFIGURATIONS tsan) so the
# default test run never pays for the extra build.
if(NOT DEFINED SOURCE_DIR OR NOT DEFINED BINARY_DIR OR NOT DEFINED TEST_TARGET)
  message(FATAL_ERROR
          "run_tsan_test.cmake needs SOURCE_DIR, BINARY_DIR and TEST_TARGET")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DDFDB_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "tsan configure failed")
endif()

# A bare -j would let the Makefiles generator start every compile at once;
# one job per logical core bounds the build's memory the way CI's
# -j "$(nproc)" does.
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
if(NOT jobs GREATER 0)
  set(jobs 1)
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} --target ${TEST_TARGET}
          -j ${jobs}
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "tsan build failed")
endif()

execute_process(
  COMMAND ${BINARY_DIR}/tests/${TEST_TARGET}
  RESULT_VARIABLE test_result)
if(NOT test_result EQUAL 0)
  message(FATAL_ERROR "${TEST_TARGET} under tsan failed")
endif()
