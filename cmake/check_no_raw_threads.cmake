# Lint: `std::thread` construction is allowed only inside src/runtime/ --
# BackgroundService (maintenance.h) for long-running maintenance workers and
# RunWorkerThreads (workers.h) for bounded worker fan-out. Everything else in
# src/ must go through those helpers so thread lifecycle (ThreadContext
# registration, NUMA placement, stats) stays in one layer.
#
# `std::thread::hardware_concurrency` and `std::this_thread::*` are fine:
# the regex requires `std::thread` NOT followed by `::`.
#
# Run as: cmake -DSOURCE_DIR=<repo root> -P check_no_raw_threads.cmake
if(NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root>")
endif()

file(GLOB_RECURSE sources
  "${SOURCE_DIR}/src/*.h"
  "${SOURCE_DIR}/src/*.cc")

# Coverage guard: every linted subsystem must actually appear in the glob --
# a directory rename or glob typo would otherwise silently drop it from scope
# and the lint would keep passing vacuously.
foreach(dir IN ITEMS art baselines common index nvm pactree pmem pmwcas sync value workload)
  set(covered FALSE)
  foreach(f IN LISTS sources)
    if(f MATCHES "/src/${dir}/")
      set(covered TRUE)
      break()
    endif()
  endforeach()
  if(NOT covered)
    message(FATAL_ERROR
      "lint coverage hole: no sources matched under src/${dir}/ -- update the "
      "glob or the subsystem list")
  endif()
endforeach()

set(violations "")
foreach(f IN LISTS sources)
  if(f MATCHES "/src/runtime/")
    continue()
  endif()
  file(STRINGS "${f}" hits REGEX "std::thread([^:]|$)")
  if(hits)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${f}")
    foreach(line IN LISTS hits)
      string(APPEND violations "  ${rel}: ${line}\n")
    endforeach()
  endif()
endforeach()

if(violations)
  message(FATAL_ERROR
    "std::thread used outside src/runtime/ -- spawn workers through "
    "RunWorkerThreads (src/runtime/workers.h) or register a BackgroundService "
    "(src/runtime/maintenance.h):\n${violations}")
endif()
message(STATUS "no raw std::thread outside src/runtime/")
