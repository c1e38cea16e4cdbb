#!/usr/bin/env python3
"""Build js-ceres from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exec|analysis|serve --seed N \
        --seconds S --trace 0|1

Builds perfbench/bench.exe, perfbench/calib.exe (the reference workload
that times are scaled by) and bin/jsceres.exe (the serve workload's
server) with dune, then runs the benchmark, whose
last stdout line is the JSON result. Build output goes to stderr. Every
file the run writes stays in the checkout: _build/ and .perfbench_out/.
Exits non-zero, printing no result, when the build or the run fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

OUT_DIR = ".perfbench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources the benchmark builds."""
    if os.path.exists(".git"):
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    args = sys.argv[1:]
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from a js-ceres checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe",
             "./perfbench/calib.exe", "./bin/jsceres.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # runtime_events ring files of traced runs land in OUT_DIR
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe")] + args
    cmd += ["--commit", source_id()]
    # its own process group, so a timeout also stops the serve child
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
