#!/bin/sh
# Checks that each SIMD kernel object defines only its own ISA's code: the
# kernel instantiations over its vector type and its vtable function
# (DESIGN.md §13.1). Any other definition, such as an inline function that
# the portable code uses too, could be the copy the linker keeps, and would
# fault on a host without that ISA. Run it on a Debug build, where nothing
# is inlined away:
#
#   cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
#   cmake --build build-debug --target sttsv_core
#   tools/check_isa_symbols.sh build-debug/src/core/CMakeFiles/sttsv_core.dir
#
# Prints every offending symbol and exits 1 if there is one or an object
# is missing.

set -u
if [ $# -ne 1 ]; then
  echo "usage: $0 OBJECT_DIR" >&2
  exit 2
fi
dir=$1
status=0

# check OBJECT VECTOR_TYPE VTABLE_FUNCTION
check() {
  if ! syms=$(nm -C --defined-only "$dir/$1"); then
    echo "$1: cannot read symbols"
    status=1
    return
  fi
  other=$(printf '%s\n' "$syms" | grep -v -F -e "$2" -e "$3")
  if [ -n "$other" ]; then
    echo "$1 defines symbols outside $2 and $3:"
    printf '%s\n' "$other"
    status=1
  else
    echo "$1: $(printf '%s\n' "$syms" | wc -l) symbols, all $2 or $3"
  fi
}

check panel_kernels_avx512.cpp.o VecAvx512 'avx512_panel_vtable()'
check panel_kernels_avx2.cpp.o VecAvx2 'avx2_panel_vtable()'
check block_kernels_avx2.cpp.o VecAvx2 'avx2_kernel_vtable()'
exit $status
