# Fails when the gate-level noise refill objects (jitter.cpp.o and
# flicker.cpp.o) call libm's fma.  A baseline x86-64 build has no FMA
# instruction, so std::fma there is a call through the PLT; the per-gate
# delay blocks must go through support::simd::fma_delay_block, which uses
# the FMA instruction on the AVX2 and AVX-512 tiers.  No output or golden
# digest shows the difference (every correct fma rounds the same), only
# the refill time.  Run as:
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<obj|obj|...> -P check_no_libm_fma.cmake
string(REPLACE "|" ";" objects "${OBJECTS}")
set(checked 0)
set(bad "")
foreach(obj IN LISTS objects)
  if(NOT obj MATCHES "/(jitter|flicker)\\.cpp\\.o(bj)?$")
    continue()
  endif()
  execute_process(COMMAND "${OBJDUMP}" -dr "${obj}"
    OUTPUT_VARIABLE dump RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -dr ${obj} failed (${rc})")
  endif()
  if(dump MATCHES "R_X86_64_[A-Z0-9_]+[ \t]+fma([^A-Za-z0-9_.]|$)")
    list(APPEND bad "${obj}")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()
if(NOT checked EQUAL 2)
  message(FATAL_ERROR "expected jitter and flicker objects among: ${OBJECTS}")
endif()
if(bad)
  message(FATAL_ERROR "libm fma call in: ${bad}")
endif()
message(STATUS "jitter and flicker objects call no libm fma")
