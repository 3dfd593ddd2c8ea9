# Registered ctest (see tests/CMakeLists.txt): whole-run energy reported by
# emask-run must price the hiding countermeasure.  Runs a small program
# under `original` and under `wddl --phases`, then requires
#   * wddl energy >= 1.5x original (dual-rail precharge costs ~2x), and
#   * the --phases energy column summing to the reported total, within the
#     printed precision.
#
# Invoked as:
#   cmake -DTOOL=<emask-run> -DSOURCE=<program.s> -P run_hiding_test.cmake
foreach(var TOOL SOURCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_hiding_test: -D${var}=... is required")
  endif()
endforeach()

# Runs emask-run with the given options; sets <out_var> to its stdout.
function(run_tool out_var)
  execute_process(COMMAND "${TOOL}" "${SOURCE}" ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "run_hiding_test: emask-run ${ARGN} exited ${status}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Sets <uj_var> to the uJ figure of the `energy    : X uJ` line in <out>.
function(energy_uj out uj_var)
  if(NOT out MATCHES "energy +: ([0-9.]+) uJ")
    message(FATAL_ERROR "run_hiding_test: no energy line in:\n${out}")
  endif()
  set(${uj_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# cmake's math() is integer-only: compare in units of 1e-4 uJ (the energy
# line prints 3 decimals of uJ and the phase table 4, so both are exact).
function(to_units uj out_var)
  if(NOT uj MATCHES "^([0-9]+)\\.([0-9]+)$")
    message(FATAL_ERROR "run_hiding_test: malformed energy '${uj}'")
  endif()
  set(whole "${CMAKE_MATCH_1}")
  string(SUBSTRING "${CMAKE_MATCH_2}0000" 0 4 frac)
  string(REGEX REPLACE "^0+([0-9])" "\\1" frac "${frac}")
  math(EXPR value "${whole} * 10000 + ${frac}")
  set(${out_var} ${value} PARENT_SCOPE)
endfunction()

run_tool(original_out --policy=original)
run_tool(wddl_out --policy=wddl --phases)
energy_uj("${original_out}" original_uj)
energy_uj("${wddl_out}" wddl_uj)
to_units(${original_uj} original)
to_units(${wddl_uj} wddl)

math(EXPR floor "${original} * 3 / 2")
if(wddl LESS floor)
  message(FATAL_ERROR "run_hiding_test: wddl reports ${wddl_uj} uJ, less "
                      "than 1.5x original's ${original_uj} uJ — the hiding "
                      "countermeasure is not priced")
endif()

# Phase rows: `label cycles energy_uj pj_per_cycle`, after the header.
string(REGEX MATCH "\nphase [^\n]*\n(.*)$" table "${wddl_out}")
string(REGEX MATCHALL "[^\n]+" rows "${CMAKE_MATCH_1}")
set(phase_sum 0)
set(phase_count 0)
foreach(row IN LISTS rows)
  if(NOT row MATCHES "^[^ ]+ +[0-9]+ +([0-9.]+) +[0-9.]+$")
    message(FATAL_ERROR "run_hiding_test: malformed phase row '${row}'")
  endif()
  to_units(${CMAKE_MATCH_1} phase_uj)
  math(EXPR phase_sum "${phase_sum} + ${phase_uj}")
  math(EXPR phase_count "${phase_count} + 1")
endforeach()
if(phase_count EQUAL 0)
  message(FATAL_ERROR "run_hiding_test: no phase rows in:\n${wddl_out}")
endif()

# Each printed value is off by at most half its last digit: 5 (0.0005 uJ)
# for the total, 0.5 per phase row (rounded up to 1 for integer math).
math(EXPR slack "5 + ${phase_count}")
math(EXPR diff "${phase_sum} - ${wddl}")
if(diff LESS 0)
  math(EXPR diff "-(${diff})")
endif()
if(diff GREATER slack)
  message(FATAL_ERROR "run_hiding_test: --phases sums to ${phase_sum} "
                      "(1e-4 uJ) but the run reports ${wddl_uj} uJ")
endif()
message(STATUS "run_hiding_test: original ${original_uj} uJ, wddl "
               "${wddl_uj} uJ, phases consistent")
