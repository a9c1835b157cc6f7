#!/usr/bin/env python3
"""bench_e2e_smoke: every workload in --quick mode, traced.

    python3 smoke.py <path/to/hds_bench> <out_dir>

Fails unless each run exits 0, reports every end-to-end and per-layer metric
of the catalogue (hds_bench --list) with its unit, has no failed unit, and
writes a parseable <workload>.layers.json and <workload>.trace.json.
"""
import json
import os
import subprocess
import sys


def main():
    binary, out_dir = sys.argv[1], sys.argv[2]
    cat = json.loads(subprocess.check_output([binary, "--list"], text=True))
    problems = []
    for w in (x["name"] for x in cat["workloads"]):
        p = subprocess.run([binary, "--workload", w, "--quick", "--trace", out_dir],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=100)
        if p.returncode != 0:
            problems.append(f"{w}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
            continue
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
            problems.append(f"{w}: correct={res['correct']} attempted={res['attempted']} "
                            f"failed={res['failed']}")
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for m in cat[section]:
                got = res.get(key, {}).get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w}: {key} lacks {m['name']} [{m['unit']}]")
        for suffix in (".layers.json", ".trace.json"):
            with open(os.path.join(out_dir, w + suffix)) as f:
                json.load(f)
        print(f"{w}: ok ({res['attempted']} units)")
    for line in problems:
        print("FAIL " + line)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
