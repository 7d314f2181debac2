#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program (perfbench/bench.exe) is built with dune into
_perfbench/build. Its report goes to standard output; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
That line is checked against BENCHMARK.json before it is printed: the
metric names and units must be exactly the declared end_to_end metrics
(--trace 0) or per_layer metrics (--trace 1).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "_perfbench")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("no M3 source tree (dune-project, lib/) next to perfbench/")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    os.makedirs(OUT, exist_ok=True)
    cmd = [
        dune, "build", "--root", ROOT, "--build-dir", os.path.join(OUT, "build"),
        "--profile", "release", "./perfbench/bench.exe",
    ]
    # Build output goes to stderr so that stdout ends with the result;
    # the shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(OUT, "build", "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        fail("unknown workload %r" % args.workload)

    exe = build()
    proc = subprocess.run(
        [
            exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail(
            "metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want)))
        )
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
