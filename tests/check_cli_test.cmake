# Command-line contract of reconfnet_check: exit statuses, the finding line
# format, --stale-suppressions and the SARIF tool name. Runs the binary
# against the existing fixtures; the gtest suites cover the rules themselves.
#
# Usage:
#   cmake -DCHECK=path/to/reconfnet_check -DROOT=repo-root -DOUT=scratch-dir
#         -P tests/check_cli_test.cmake

set(fixture tests/lint_fixtures/rnl201_missing_pragma.hpp)

# run(<exit-regex> <args>...): runs the checker from ROOT; leaves its stdout
# in `out` and records a failure when the exit status does not match.
function(run expected)
  execute_process(COMMAND ${CHECK} ${ARGN}
    WORKING_DIRECTORY ${ROOT}
    RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  set(out "${stdout}" PARENT_SCOPE)
  if(NOT status MATCHES "^(${expected})$")
    message(SEND_ERROR "reconfnet_check ${ARGN}: exit ${status}, want "
                       "${expected}\n${stdout}${stderr}")
  endif()
endfunction()

# Usage and configuration errors exit 2.
run(2 bogus)
run(2 lint --bogus)
run(2 lint --spec tools/lint/no_such_spec.toml)
run(2 lint tests/lint_fixtures/no_such_file.cpp)

# A known violation exits 1 and prints its `file:line: RULE` line.
run(1 lint ${fixture})
if(NOT out MATCHES "(^|\n)${fixture}:1: RNL201 ")
  message(SEND_ERROR "missing the RNL201 finding line:\n${out}")
endif()

# The stale-suppression report is housekeeping, never a gate.
run(0 lint --stale-suppressions ${fixture})

# Every analyzer's SARIF log names it as reconfnet_<analyzer>.
foreach(analyzer lint protocheck hotcheck racecheck oraclecheck)
  set(sarif ${OUT}/${analyzer}.sarif)
  file(REMOVE ${sarif})
  run("0|1" ${analyzer} --sarif ${sarif} ${fixture})
  file(READ ${sarif} log)
  string(JSON name ERROR_VARIABLE json_error
         GET "${log}" runs 0 tool driver name)
  if(NOT name STREQUAL "reconfnet_${analyzer}")
    message(SEND_ERROR "${analyzer}: SARIF tool.driver.name is '${name}' "
                       "${json_error}")
  endif()
endforeach()
