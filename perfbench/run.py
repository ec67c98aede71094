#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Every option except --self-test is passed to the OCaml program
(perfbench/main.ml); its last line of output is the JSON result and its
exit code is this script's. The build stays inside the checkout (dune's
_build, with the shared dune cache off). The commit recorded in the
provenance line comes from PERFBENCH_COMMIT, else from git when the
checkout is a repository, else "unknown".

--self-test runs the smoke size of every workload (each must pass and
print every metric with its unit) and then plants a dropped write, which
must make the command fail.
"""
import glob
import json
import os
import shutil
import subprocess
import sys

TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["ingest_uniform", "read_zipf", "retail_pm", "sharded_ycsb_a"]


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def build():
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        [dune, "build", "--root", ".", TARGET],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return done.returncode == 0 and os.path.exists(EXE)


def commit():
    if os.environ.get("PERFBENCH_COMMIT"):
        return os.environ["PERFBENCH_COMMIT"]
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    return "unknown"


def run(args, capture=False):
    return subprocess.run([EXE] + args + ["--commit", commit()], capture_output=capture, text=True)


def self_test():
    with open(os.path.join("perfbench", "fingerprints.json")) as f:
        json.load(f)
    for w in WORKLOADS:
        done = run(["--workload", w, "--seed", "7", "--smoke"], capture=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
            print(done.stdout + done.stderr)
            print("self-test: %s smoke run failed" % w)
            return 1
        result = json.loads(lines[-1])
        listed = [l.split()[0] for l in lines if l.startswith("  ")]
        missing = [m for m in result["metrics"] if m not in listed]
        if missing:
            print("self-test: %s did not print %s" % (w, ", ".join(missing)))
            return 1
        print("self-test: %s smoke ok, %d metrics" % (w, len(result["metrics"])))
    planted = run(["--workload", "ingest_uniform", "--seed", "7", "--smoke", "--plant", "drop_put"], capture=True)
    if planted.returncode == 0:
        print("self-test: the planted dropped write went unnoticed")
        return 1
    print("self-test: planted dropped write fails the command (exit %d)" % planted.returncode)
    return 0


def main():
    if not os.path.isfile(os.path.join("perfbench", "main.ml")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    return run(sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
