# Samples one small bench run with the LD_PRELOAD sampler and checks that
# tools/prof_report.py symbolizes the profile down to dfdb:: frames. Driven
# by the `prof_sampler_smoke` ctest entry.
if(NOT DEFINED BENCH OR NOT DEFINED SAMPLER OR NOT DEFINED PYTHON
   OR NOT DEFINED REPORT OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
      "run_prof_smoke.cmake needs BENCH, SAMPLER, PYTHON, REPORT, and OUT_DIR")
endif()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env LD_PRELOAD=${SAMPLER} PROF_HZ=1000
          PROF_OUT=${OUT_DIR}/prof
          ${BENCH} --scale=0.1 --json=${OUT_DIR}/bench.json
  RESULT_VARIABLE bench_result
  OUTPUT_QUIET)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR "sampled bench run failed (${BENCH})")
endif()

file(GLOB profiles ${OUT_DIR}/prof.*)
list(LENGTH profiles nprofiles)
if(NOT nprofiles EQUAL 1)
  message(FATAL_ERROR "expected one profile in ${OUT_DIR}, found ${nprofiles}")
endif()

execute_process(
  COMMAND ${PYTHON} ${REPORT} ${profiles} --top 15
  RESULT_VARIABLE report_result
  OUTPUT_VARIABLE report)
message("${report}")
if(NOT report_result EQUAL 0)
  message(FATAL_ERROR "prof_report.py failed on ${profiles}")
endif()
string(FIND "${report}" "dfdb::" found)
if(found EQUAL -1)
  message(FATAL_ERROR "the report names no dfdb:: frame")
endif()
