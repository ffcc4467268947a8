#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2e_bench/run.py --workload olap|olap_par|oltp --seed N \
        --seconds S --trace 0|1
    python3 e2e_bench/run.py --self-test

The first form builds e2e_bench/main.exe with dune and runs it; the last
line of its standard output is the JSON result.  The second runs every
workload at a tiny size, traced and untraced, and checks that every
metric BENCHMARK.json names is present and finite, that the run is
correct, and that the traced spans cover at least 95% of each operation.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "e2e_bench", "main.exe")
WORKLOADS = ["olap", "oltp", "olap_par"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print("e2e_bench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    for path in ["dune-project", "lib", os.path.join("e2e_bench", "dune")]:
        if not os.path.exists(path):
            fail("run from the root of a checkout of the repository (%s is missing)" % path)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    p = subprocess.run([dune, "build", "--root", ".", "./e2e_bench/main.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        p = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "e2e_bench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run(args, capture=False):
    cmd = [EXE] + args + ["--commit", source_id()]
    try:
        p = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                           capture_output=capture)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    return p


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, group in [("0", "end_to_end"), ("1", "per_layer")]:
            p = run(["--workload", w, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--size", "tiny"], capture=True)
            where = "%s --trace %s" % (w, trace)
            before = len(problems)
            if p.returncode != 0:
                sys.stderr.write(p.stderr)
                problems.append("%s: exit code %d" % (where, p.returncode))
            # Exit code 1 is a run that failed checks but still printed its
            # result; anything else printed none.
            if p.returncode not in (0, 1):
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if result["correct"] is not True or result["failed"] != 0:
                problems.append("%s: %d of %d checks failed"
                                % (where, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            for m in spec[group]:
                v = metrics.get(m["name"], {}).get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append("%s: %s missing or not finite" % (where, m["name"]))
                elif metrics[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %s" % (where, m["name"], metrics[m["name"]]["unit"]))
            for name, v in metrics.items():
                if name.startswith("coverage.") and not v["value"] >= 0.95:
                    problems.append("%s: %s is %.3f" % (where, name, v["value"]))
            print("self-test %-16s %s" % (where, "ok" if len(problems) == before else "FAILED"),
                  file=sys.stderr)
    for msg in problems:
        print("self-test FAILED: " + msg, file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    check_checkout()
    build()
    if sys.argv[1:] == ["--self-test"]:
        self_test()
    p = run(sys.argv[1:])
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
