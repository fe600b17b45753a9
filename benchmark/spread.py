#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the driver measures it.

Runs every workload N times, each with another seed, and prints for each
end-to-end metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of that median, beside the
bound BENCHMARK.json gives it. Run from the repository root, after
`cargo build --release --manifest-path benchmark/Cargo.toml`:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--out RUNS.jsonl] -- <benchmark executable>
    python3 benchmark/spread.py --from RUNS.jsonl      # re-read saved runs
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's result object here, one JSON line each")
    parser.add_argument("--from", dest="saved", help="read runs saved with --out in place of running")
    parser.add_argument("command", nargs="*", help="the benchmark executable and leading arguments")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = [json.loads(line) for line in open(args.saved)] if args.saved else None
    out = open(args.out, "w") if args.out else None
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        if saved is not None:
            rows = [r for r in saved if r["workload"] == workload]
        else:
            rows = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                result = run(args.command, workload, seed, spec["run_seconds"])
                rows.append({"workload": workload, "seed": seed, "result": result})
                if out:
                    out.write(json.dumps(rows[-1]) + "\n")
        for row in rows:
            assert row["result"]["correct"] and row["result"]["failed"] == 0, row
        seeds = [row["seed"] for row in rows]
        print(f"== {workload} ({len(rows)} runs, seeds {min(seeds)}-{max(seeds)})")
        for name, bound in bounds.items():
            values = [row["result"]["metrics"][name]["value"] for row in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:<20} median {med:>14.4f}  spread {spread:>7.4f}  bound {bound:<5} "
                  f"{'ok' if spread <= bound / 3 else 'WIDE' if spread <= bound else 'OVER'}")
        sys.stdout.flush()
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
