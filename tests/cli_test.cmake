# Command-line input checks for algas_cli, one case per ctest entry:
#
#   cmake -DCLI=path/to/algas_cli -DWORK=scratch/dir -DCASE=<case> \
#         -P tests/cli_test.cmake
#
# Every case runs a malformed invocation and expects exit status 1, an
# error on stderr that names the offending flag, and no file written or
# changed.
foreach(var CLI WORK CASE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_test.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs algas_cli with ARGN in WORK; stores the exit code and stderr.
function(cli out_code out_err)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  set(${out_code} "${code}" PARENT_SCOPE)
  set(${out_err} "${err}" PARENT_SCOPE)
endfunction()

function(run_ok)
  cli(code err ${ARGN})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "setup step failed (${code}): ${ARGN}\n${err}")
  endif()
endfunction()

# Expects exit 1 with `flag` named on stderr.
function(expect_rejected flag)
  cli(code err ${ARGN})
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "expected exit 1, got ${code}: ${ARGN}\n${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name ${flag}: ${err}")
  endif()
endfunction()

# A tiny dataset, graph and mutable-index snapshot.
function(make_index)
  run_ok(gen --name sift --n 300 --q 5 --out ds.abin)
  run_ok(build --dataset ds.abin --kind nsw --degree 8 --ef 16
         --out graph.agr)
  run_ok(delete --dataset ds.abin --graph graph.agr --ids 1
         --out-index idx.amx)
endfunction()

if(CASE STREQUAL "delete_bad_ids")
  # 4294967299 does not fit a 32-bit node id (it used to wrap to 3) and
  # "abc" is not a number (it used to read as 0).
  make_index()
  file(SHA256 "${WORK}/idx.amx" before)
  expect_rejected(--ids delete --dataset ds.abin --index idx.amx
                  --ids 4294967299,abc)
  file(SHA256 "${WORK}/idx.amx" after)
  if(NOT before STREQUAL after)
    message(FATAL_ERROR "a rejected delete rewrote idx.amx")
  endif()
elseif(CASE STREQUAL "non_numeric_n")
  expect_rejected(--n gen --name sift --n abc --q 5 --out ds.abin)
  if(EXISTS "${WORK}/ds.abin")
    message(FATAL_ERROR "a rejected gen wrote ds.abin")
  endif()
elseif(CASE STREQUAL "unknown_flag")
  expect_rejected(--bogus gen --name sift --n 300 --q 5 --out ds.abin
                  --bogus 1)
  if(EXISTS "${WORK}/ds.abin")
    message(FATAL_ERROR "a rejected gen wrote ds.abin")
  endif()
else()
  message(FATAL_ERROR "unknown CASE ${CASE}")
endif()
