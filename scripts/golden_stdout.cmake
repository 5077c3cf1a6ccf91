# Golden-output check, run as a ctest:
#
#   cmake -Dprogram=PATH [-Darg=ARG] -Dgolden=FILE -P golden_stdout.cmake
#
# Fails unless PROGRAM (given ARG, if any) exits 0 and its stdout is
# byte-identical to FILE.  On a difference it prints both, so the
# ctest log shows what changed.
execute_process(COMMAND "${program}" ${arg}
    RESULT_VARIABLE status OUTPUT_VARIABLE out)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${program} ${arg} exited: ${status}\n${out}")
endif()
file(READ "${golden}" expected)
if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${program} ${arg}: stdout differs from "
        "${golden}\n--- expected:\n${expected}--- got:\n${out}")
endif()
