# Fails when an object built with CPU-specific ISA flags (the x86-64 AVX2
# and AVX-512 tier TUs, named *_avx2.cpp / *_avx512.cpp) holds code that
# can run outside the runtime CPU check guarding every call into it:
#  - a C++ static initializer, which runs before main, so it would stop
#    every binary with SIGILL on a host without the ISA (the priority-
#    suffixed .init_array.NNNNN a sanitizer adds is its own module ctor);
#  - a weak (COMDAT) function, e.g. an inline or template function from a
#    header, whose copy the linker may pick for baseline callers too.
# No run on a host with the ISA shows either fault.  Run as:
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<obj|obj|...> -P check_tier_objects.cmake
string(REPLACE "|" ";" objects "${OBJECTS}")
set(checked 0)
set(bad "")
foreach(obj IN LISTS objects)
  if(NOT obj MATCHES "_avx(2|512)\\.cpp\\.o(bj)?$")
    continue()
  endif()
  execute_process(COMMAND "${OBJDUMP}" -h -t "${obj}"
    OUTPUT_VARIABLE dump RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -h -t ${obj} failed (${rc})")
  endif()
  if(dump MATCHES "_GLOBAL__sub_I_|\\.init_array |\\.ctors |[0-9a-f]+ +w +F ")
    list(APPEND bad "${obj}")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "no ISA-tier object among: ${OBJECTS}")
endif()
if(bad)
  message(FATAL_ERROR "code outside the CPU check in: ${bad}")
endif()
message(STATUS "${checked} ISA-tier objects, none with code outside the CPU check")
