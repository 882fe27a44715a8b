#!/usr/bin/env python3
"""Build the sanids detection benchmark from source and run it once.

Usage, from the root of a sanids source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (perfbench/sanidsbench.ml) is built with dune
against the libraries of the surrounding source tree, then run with the
same arguments.  Its standard output is passed through unchanged; the
last line is the JSON result.  Exits non-zero, without a result, when
the tree cannot be built or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "perfbench/sanidsbench.exe"
EXE = os.path.join(ROOT, "_build", "default", TARGET)

BUILD_TIMEOUT_S = 780
# set-up, input generation and the warm-up pass come on top of the
# measured seconds
RUN_SLACK_S = 90


def run_group(argv, timeout, **kwargs):
    """Run argv in its own process group; on timeout kill the whole group
    (dune's compiler children included) and wait for it."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("run.py: %s is not a sanids source tree" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")

    # the shared dune cache lives outside the tree: keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = run_group([dune, "build", "--root", ROOT, TARGET],
                         BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if code != 0:
        sys.exit("run.py: build failed (exit %d)" % code)

    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code = run_group(argv, args.seconds + RUN_SLACK_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
