#!/usr/bin/env python3
"""Self-test of the repository benchmark (README.md beside this file).

    python3 nuebench/check.py [--seconds S]

Run from the repository root. Checks that

  * the metric names each run prints are exactly those BENCHMARK.json
    declares (end-to-end untraced, per-layer traced), with their units;
  * every workload passes its output checks on its default seed;
  * the deterministic work counts repeat exactly across two traced runs
    with the same seed;
  * a deliberately broken input raises the failed share: a misdirected
    next hop in the torus-route table, and route queries sent to a
    removed fabric on daemon-storm.

Exits 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace, corrupt=False):
    """One benchmark run: (result JSON, counts dict)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    counts = next(l for l in lines if l.startswith("counts "))
    return json.loads(lines[-1]), json.loads(counts[len("counts "):])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="measured seconds per run (default 1)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name, seed = w["name"], seeds[w["name"]]["default"]
        plain, _ = run(name, seed, args.seconds, 0)
        traced, counts = run(name, seed, args.seconds, 1)
        again, counts_again = run(name, seed, args.seconds, 1)
        for trace, res in ((0, plain), (1, traced)):
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(printed == declared[trace],
                   f"{name}: --trace {trace} prints the declared metrics")
        for res in (plain, traced, again):
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0,
                   f"{name}: outputs correct ({res['attempted']} attempted, "
                   f"{res['failed']} failed)")
        expect(counts and counts == counts_again,
               f"{name}: work counts repeat exactly ({len(counts)} counts)")
        if name in ("torus-route", "daemon-storm"):
            broken, _ = run(name, seed, args.seconds, 0, corrupt=True)
            share = broken["metrics"]["ok_share"]["value"]
            expect(broken["failed"] > 0 and not broken["correct"]
                   and share < 1.0,
                   f"{name}: a broken input is counted ({broken['failed']} "
                   f"of {broken['attempted']} failed, ok_share {share:.4f})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
