#!/usr/bin/env python3
"""Builds hds_bench from the checkout, runs one workload, prints one result line.

    python3 hds_bench/run.py --workload W --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. The build goes to $CARGO_TARGET_DIR/hds_bench
(default .bench_build/hds_bench), is configured once (Release) and rebuilt
incrementally on every call; build output goes to stderr.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
untraced and then the traced pass and reports its per-layer metrics. The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; each metric is
{"value", "unit"}. Any build or run failure, a safety violation, or a traced
pass that diverges from the untraced one exits nonzero without that line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    out = os.path.join(target_dir, "hds_bench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "hds_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}

    out = build()
    cmd = [os.path.join(out, "hds_bench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds)]
    if a.trace:
        cmd += ["--trace", os.path.join(out, "trace")]
    if a.quick:
        cmd.append("--quick")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"hds_bench did not finish within {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        fail(f"hds_bench exited {p.returncode}", p.returncode)
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("hds_bench printed no result")
    res = json.loads(lines[-1])
    got = res["layers" if a.trace else "metrics"]
    wrong = [n for n, u in units.items() if n not in got or got[n]["unit"] != u]
    if wrong:
        fail("metrics missing from the result or in another unit: " + ", ".join(wrong))
    print(lines[-1])
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": got[n]["value"], "unit": u} for n, u in units.items()},
    }))


if __name__ == "__main__":
    main()
