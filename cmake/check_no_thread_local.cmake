# Lint: `thread_local` is allowed only inside src/runtime/ (the ThreadContext
# layer owns the one TLS pointer). Everything else must hold per-thread state
# in the thread's ThreadContext -- see src/runtime/thread_context.h and the
# runtime-layer section of DESIGN.md.
#
# Run as: cmake -DSOURCE_DIR=<repo root> -P check_no_thread_local.cmake
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
  file(STRINGS "${f}" hits REGEX "thread_local")
  if(hits)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${f}")
    foreach(line IN LISTS hits)
      string(APPEND violations "  ${rel}: ${line}\n")
    endforeach()
  endif()
endforeach()

if(violations)
  message(FATAL_ERROR
    "thread_local found outside src/runtime/ -- move the state into "
    "ThreadContext (src/runtime/thread_context.h):\n${violations}")
endif()
message(STATUS "no thread_local outside src/runtime/")
