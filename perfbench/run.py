#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload check_dense --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout.  It builds perfbench/main.exe
with dune (the build is incremental, so only the first run pays for it),
runs the workload in a fresh process, and passes its output through: the
last line of standard output is the JSON result.  Build output goes to
standard error.  Artifacts, journals and trace spans land in _perfbench/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("check_dense", "wide_run", "fault_soak")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("%s is not a source checkout (no %s)" % (root, needed))

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", build.returncode or 1)

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("workload exited with code %d" % proc.returncode, proc.returncode)


if __name__ == "__main__":
    main()
