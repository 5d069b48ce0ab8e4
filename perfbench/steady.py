#!/usr/bin/env python3
"""Steadiness check: is each end-to-end figure repeatable?

Runs two sets of the same code in alternation -- for each of the seeds
1 to 10, one run per set, the sets taking turns -- on every workload in
BENCHMARK.json, each run lasting its run_seconds. It prints, for every
end-to-end metric of every workload, each set's median and quartiles,
its spread (distance between the quartiles as a share of the median)
and the drift of the second set's median from the first's, and the
worst of the spreads and the drift as a share of the metric's bound.
The bounds in BENCHMARK.json are chosen from these figures: every spread
and drift should sit below a third of the metric's bound.

Usage, from the root of the repository:

    python3 perfbench/steady.py

Each run goes through perfbench/run.py, exactly as the benchmark is run;
every run's result line goes to standard error.
"""
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), p.stderr))
    return json.loads(p.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}  # (workload, set) -> list of results
    for w in workloads:
        for i, seed in enumerate(SEEDS):
            order = list(range(SETS))
            if i % 2:
                order.reverse()
            for s in order:
                r = run_once(w, seed, bench["run_seconds"])
                runs.setdefault((w, s), []).append(r)
                if not r["correct"]:
                    print("INCORRECT: %s seed %d set %d" % (w, seed, s), file=sys.stderr)
                print("%s seed %d set %d: %s" % (w, seed, s, json.dumps(r)), file=sys.stderr)
    worst = 0.0
    for w in workloads:
        print("\n%s" % w)
        shares = []
        for s in range(SETS):
            att = sum(r["attempted"] for r in runs[(w, s)])
            fail = sum(r["failed"] for r in runs[(w, s)])
            shares.append(fail / att)
        print("  failed share per set: %s" % " ".join("%.6f" % x for x in shares))
        print("  %-18s %5s  %-34s %-34s %8s %8s" % ("metric", "bound", "set 0: median [q1, q3] spread",
                                                    "set 1: median [q1, q3] spread", "drift", "worst/b"))
        for name in sorted(bounds):
            cells, meds, ratio = [], [], 0.0
            for s in range(SETS):
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs[(w, s)]])
                meds.append(med)
                cells.append("%10.4f [%.4f, %.4f] %5.1f%%" % (med, q1, q3, spread * 100))
                ratio = max(ratio, spread / bounds[name])
            drift = abs(meds[1] / meds[0] - 1) if meds[0] else 0.0
            ratio = max(ratio, drift / bounds[name])
            worst = max(worst, ratio)
            print("  %-18s %5.2f  %s %7.2f%% %8.2f" % (name, bounds[name], " ".join(cells), drift * 100, ratio))
    print("\nworst spread or drift as a share of its bound: %.2f (aim below 0.33)" % worst)


if __name__ == "__main__":
    main()
