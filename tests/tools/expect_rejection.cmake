# Passes when a document checker rejects its input: the command exits
# non-zero and its output names the field at fault.
#
#   cmake -DPYTHON=python3 -DSCRIPT=tools/validate_bench_json.py
#         -DDOC=bad.json -DFIELD=hardware_threads -P expect_rejection.cmake
#
# The checker runs under `python3 -O`, which strips assert statements, so
# a check written as an assert would let the bad document pass.
execute_process(
  COMMAND ${PYTHON} -O ${SCRIPT} ${DOC}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
message("${output}")
if(status EQUAL 0)
  message(FATAL_ERROR "${SCRIPT} accepted ${DOC}")
endif()
string(FIND "${output}" "${FIELD}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${SCRIPT} rejected ${DOC} without naming ${FIELD}")
endif()
