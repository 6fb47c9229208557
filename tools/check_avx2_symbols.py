#!/usr/bin/env python3
"""Check that the AVX2 kernel object leaks no AVX code into shared symbols.

Usage: check_avx2_symbols.py OBJECT

OBJECT is the compiled core/batch_kernels_avx2.cc. Only the kernel
code may use AVX: every weak (COMDAT) function it defines outside
namespace bpsim::kernels_avx2 is an inline or template function that
other translation units define too, and the linker may keep this
object's copy for every caller — which would then fault on a CPU
without AVX2. The check disassembles each such function and fails on
any VEX-encoded (v-prefixed) instruction or ymm register. As a sanity
check it also requires the kernels themselves to contain VEX code, so
a build that silently dropped the AVX2 target fails too.

Exit status: 0 clean, 1 leak (or no AVX kernel code), 2 usage/tool error.
"""

import re
import subprocess
import sys

KERNEL_PREFIX = "_ZN5bpsim12kernels_avx2"
LABEL = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def run(args):
    try:
        return subprocess.run(args, check=True, capture_output=True,
                              text=True).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"check_avx2_symbols: {' '.join(args)} failed: {error}",
              file=sys.stderr)
        sys.exit(2)


def weak_functions(obj):
    names = set()
    for line in run(["nm", "--defined-only", obj]).splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] == "W":
            names.add(fields[2])
    return names


def avx_functions(obj):
    """Functions of OBJ holding VEX instructions or ymm registers."""
    found = set()
    current = None
    for line in run(["objdump", "-d", "--no-show-raw-insn", obj]).splitlines():
        label = LABEL.match(line)
        if label:
            current = label.group(1)
            continue
        fields = line.split("\t")
        if current is None or len(fields) < 2 or not fields[0].strip():
            continue
        instruction = fields[1].strip()
        if instruction.startswith("v") or "%ymm" in instruction:
            found.add(current)
    return found


def demangle(name):
    return run(["c++filt", name]).strip()


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    obj = sys.argv[1]
    avx = avx_functions(obj)
    if not any(name.startswith(KERNEL_PREFIX) for name in avx):
        print(f"check_avx2_symbols: no AVX code in the kernels of {obj}",
              file=sys.stderr)
        return 1
    leaks = sorted(name for name in weak_functions(obj) & avx
                   if not name.startswith(KERNEL_PREFIX))
    for name in leaks:
        print(f"AVX code in shared symbol: {demangle(name)}")
    if leaks:
        return 1
    print(f"check_avx2_symbols: ok ({len(weak_functions(obj))} weak "
          f"symbols, AVX code only in bpsim::kernels_avx2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
