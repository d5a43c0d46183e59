#!/usr/bin/env python3
"""Build the fwbench binary from source and run one workload.

Run from the repository root:

    python3 fwbench/run.py --workload stream-fw --seed 1 --seconds 20 --trace 0

Workloads: stream-fw, serve-churn, durable-ckpt, spill-wide.  The last
line of standard output is the JSON result; build output and the
human-readable summary go to standard error.  Every file the run writes
stays under .bench_build/ (scratch) and _build/ (dune).  See
fwbench/README.md for what each workload and metric means.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "fwbench", "bin", "fwbench.exe")
SCRATCH = os.path.join(".bench_build", "fwbench")


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("fwbench: run from the root of a factor-windows checkout "
              "(no dune-project and lib/ here)", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("fwbench: dune not found on PATH", file=sys.stderr)
        return 2
    scratch = os.path.abspath(SCRATCH)
    os.makedirs(scratch, exist_ok=True)
    # keep every file the build and the run write inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=scratch,
               XDG_CACHE_HOME=os.path.join(scratch, "cache"))
    build = subprocess.run(
        dune + ["build", "--root", ".", "--cache=disabled", "--display=quiet",
                "./fwbench/bin/fwbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("fwbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([EXE] + sys.argv[1:] + ["--scratch", scratch], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
