#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload burst-10k --seed 1 --seconds 30 --trace 0

The build goes to .bench_build with dune's shared cache disabled and
compiler temporaries under .bench_out/tmp, so nothing is written outside
the checkout. Traced runs (--trace 1) also write their spans to
.bench_out/. The last line of stdout is the JSON
result of perfbench/main.ml; the exit code is its exit code, or 2 when
the build fails (no result is printed then).
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
SPANS_DIR = ".bench_out"


def option(args, name):
    flag = "--" + name
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def dune():
    found = shutil.which("dune")
    if found is None and "OPAM_SWITCH_PREFIX" in os.environ:
        found = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
    return found or "dune"


def main():
    args = sys.argv[1:]
    # Compiler temporaries go under the checkout too, not to /tmp.
    tmp = os.path.join(os.getcwd(), SPANS_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        [dune(), "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    if option(args, "trace") == "1":
        os.makedirs(SPANS_DIR, exist_ok=True)
        name = "spans-%s-seed%s.tsv" % (option(args, "workload"), option(args, "seed"))
        args += ["--spans", os.path.join(SPANS_DIR, name)]
    sys.stdout.flush()
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
