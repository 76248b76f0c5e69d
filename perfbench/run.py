#!/usr/bin/env python3
"""Build and run the served benchmark from the root of a checkout.

One run:

    python3 perfbench/run.py --workload warm-repeat --seed 1 --seconds 30 --trace 0

builds perfbench/main.exe with dune (release profile, build output on
stderr) and runs it; its last line of standard output is the JSON result.

Repeat mode:

    python3 perfbench/run.py --repeat 10 [--seconds S] [--trace 0|1]

runs each workload N times with seeds 1..N and prints, for every metric,
the median, the quartiles and the IQR as a share of the median (as
statistics.quantiles(values, n=4) gives them), stamped with nproc, the
OCaml version and the git commit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["warm-repeat", "adhoc-cold"]


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ROOT, "--profile", "release",
           "./perfbench/main.exe"]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %d failed (exit %d)"
                 % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def stamp():
    def cmd(args):
        try:
            return subprocess.run(args, cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return {"nproc": os.cpu_count(), "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]),
            "commit": cmd(["git", "rev-parse", "HEAD"])}


def repeat(n, seconds, trace):
    report = {"stamp": stamp(), "runs": n, "seconds": seconds,
              "trace": trace, "workloads": {}}
    for w in WORKLOADS:
        values, failed = {}, 0
        for seed in range(1, n + 1):
            result = run_once(w, seed, seconds, trace)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print("%s seed %d done" % (w, seed), file=sys.stderr)
        rows = {}
        for name, (unit, vs) in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "iqr_share": (q3 - q1) / med if med else 0.0,
                          "values": vs}
        report["workloads"][w] = {"failed": failed, "metrics": rows}
    print(json.dumps(report, indent=1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int)
    a = p.parse_args()
    if a.repeat is None and (a.workload is None or a.seed is None):
        p.error("--workload and --seed are required unless --repeat is given")
    build()
    if a.repeat is not None:
        repeat(a.repeat, a.seconds, a.trace)
        return
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)])


if __name__ == "__main__":
    main()
