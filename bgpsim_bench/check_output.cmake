# Smoke check for bgpsim_bench, run as a script:
#   cmake -DBENCH_BIN=... -DBENCHMARK_JSON=... -DWORKLOAD=... -DTRACE=0|1
#         -DWORK_DIR=... [-DEXPECT_DIGEST=hex] -P check_output.cmake
#
# Runs one rep of WORKLOAD at its default seed. Without EXPECT_DIGEST the run
# must exit 0 with correct = true and print, with its unit, every metric
# BENCHMARK.json lists for that trace mode (end_to_end for TRACE=0,
# per_layer for TRACE=1); a traced run must also leave its spans file. With
# EXPECT_DIGEST (a wrong digest) the run must exit non-zero and report every
# attempted trial as failed.
cmake_minimum_required(VERSION 3.19)

foreach(var BENCH_BIN BENCHMARK_JSON WORKLOAD TRACE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output.cmake: -D${var}=... is required")
  endif()
endforeach()

if(WORKLOAD STREQUAL "headline-tdown")
  set(seed 3)
else()
  set(seed 1)
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(args --workload ${WORKLOAD} --seed ${seed} --seconds 0
         --trace ${TRACE} --out ${WORK_DIR})
if(DEFINED EXPECT_DIGEST)
  list(APPEND args --expect-digest ${EXPECT_DIGEST})
endif()
execute_process(COMMAND ${BENCH_BIN} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)

string(STRIP "${out}" out)
string(REGEX REPLACE ".*\n" "" last "${out}")
string(JSON correct ERROR_VARIABLE json_err GET "${last}" correct)
if(json_err)
  message(FATAL_ERROR "last stdout line is not a result object: ${last}\n${err}")
endif()
string(JSON attempted GET "${last}" attempted)
string(JSON failed GET "${last}" failed)

if(DEFINED EXPECT_DIGEST)
  if(rc EQUAL 0 OR correct OR NOT failed EQUAL attempted OR attempted EQUAL 0)
    message(FATAL_ERROR "wrong --expect-digest was accepted: exit ${rc}, "
                        "${failed}/${attempted} failed")
  endif()
  return()
endif()

if(NOT rc EQUAL 0 OR NOT correct)
  message(FATAL_ERROR "run failed (exit ${rc}):\n${err}")
endif()

if(TRACE)
  set(section per_layer)
  if(NOT EXISTS ${WORK_DIR}/${WORKLOAD}.spans.jsonl)
    message(FATAL_ERROR "traced run wrote no ${WORKLOAD}.spans.jsonl")
  endif()
else()
  set(section end_to_end)
endif()

file(READ ${BENCHMARK_JSON} manifest)
string(JSON count LENGTH "${manifest}" ${section})
math(EXPR last_index "${count} - 1")
foreach(i RANGE ${last_index})
  string(JSON name GET "${manifest}" ${section} ${i} name)
  string(JSON unit GET "${manifest}" ${section} ${i} unit)
  string(JSON got_unit ERROR_VARIABLE missing GET "${last}" metrics ${name} unit)
  if(missing)
    message(FATAL_ERROR "${WORKLOAD}: metric ${name} missing from the output")
  endif()
  if(NOT got_unit STREQUAL unit)
    message(FATAL_ERROR "${WORKLOAD}: ${name} has unit '${got_unit}', "
                        "BENCHMARK.json says '${unit}'")
  endif()
endforeach()
message(STATUS "${WORKLOAD} trace=${TRACE}: ${count} ${section} metrics present")
