#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload design-check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every argument is passed to perfbench/zbench.exe (see zbench.ml).  The
build goes to .bench_build/ with dune's shared cache off, so nothing is
written outside the checkout.  The last line of stdout is zbench's
JSON result; build output goes to stderr.  Temporary files (the
compiler's among them) go to .bench_build/tmp.

zbench runs with glibc's malloc told to keep freed memory mapped
(MALLOC_TUNABLES below).  By default the large blocks that the OCaml
runtime mallocs are handed back to the kernel after each operation and
faulted in again, zeroed, by the next: about 21,000 page faults per
design-check pass.  Every pass then paid for page zeroing too.  That
cost follows the host's memory traffic, not the library's work.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "zbench.exe")
MALLOC_TUNABLES = ("glibc.malloc.trim_threshold=4294967296:"
                   "glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.top_pad=67108864")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no Zeus source tree here; run from the repository root",
              file=sys.stderr)
        return 2
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache=disabled", "./perfbench/zbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (os.environ.get("GLIBC_TUNABLES"), MALLOC_TUNABLES) if t)
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
