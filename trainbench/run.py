#!/usr/bin/env python3
"""Builds and runs the end-to-end training benchmark.

    python3 trainbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 trainbench/run.py --selftest

Run from the root of a source checkout. The harness and the library are
built from source into .bench_build/ (CMake package trainbench/), then the
harness runs one workload; its last line of output is the result JSON.
--selftest runs every workload of BENCHMARK.json at reduced size and checks
that every declared metric is emitted with its unit and that a wrong
reference objective is counted as a failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bin", "trainbench")


def build():
    """Configures (once) and builds the harness and the shard worker."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               # Keep compiler caches out of the build: it must stay inside
               # the checkout.
               "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "trainbench", "factormld",
           "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=log, stderr=log).returncode == 0


def run_harness(args):
    """Runs the harness; returns (exit code, stdout lines)."""
    cmd = [BINARY] + args + ["--work-dir", os.path.join(BUILD, "work")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for wl in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            rc, lines = run_harness(["--workload", wl["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", trace,
                                     "--small"])
            tag = "%s trace=%s" % (wl["name"], trace)
            if rc != 0 or not lines:
                failures.append("%s: exit code %d" % (tag, rc))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: %d of %d failed" %
                                (tag, result["failed"], result["attempted"]))
            got = result["metrics"]
            for m in declared:
                if m["name"] not in got:
                    failures.append("%s: metric %s missing" % (tag, m["name"]))
                elif got[m["name"]].get("unit") != m["unit"]:
                    failures.append("%s: metric %s has unit %r, want %r" %
                                    (tag, m["name"], got[m["name"]].get("unit"),
                                     m["unit"]))
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                failures.append("%s: undeclared metrics %s" %
                                (tag, sorted(extra)))
            print("selftest %s: %d metrics, %d/%d trainings ok" %
                  (tag, len(got), result["attempted"] - result["failed"],
                   result["attempted"]))
    # A wrong reference objective must make every training fail the check.
    name = spec["workloads"][0]["name"]
    rc, lines = run_harness(["--workload", name, "--seed", "7", "--seconds",
                             "1", "--trace", "0", "--small",
                             "--perturb-reference"])
    result = json.loads(lines[-1]) if rc == 0 and lines else None
    if (result is None or result["correct"] or result["attempted"] < 1
            or result["failed"] != result["attempted"]):
        failures.append("%s: perturbed reference not counted as failure: %r"
                        % (name, result))
    else:
        print("selftest %s: perturbed reference fails %d/%d trainings" %
              (name, result["failed"], result["attempted"]))
    for f in failures:
        print("SELFTEST FAILURE: " + f)
    print("selftest %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main(argv):
    if not build():
        print("trainbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return selftest()
    rc, lines = run_harness(argv)
    for line in lines:
        print(line)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
