#!/usr/bin/env python3
"""Repeated runs of the benchmark, summarised the way its bounds are judged.

  python3 benchmark/bench.py baseline [--sets 2] [--runs 5] [--out FILE]
      Runs every workload --runs times at seed 1 per set, --sets times,
      plus one traced set at seeds 1 and 2 for the workload sizes, and
      writes the medians and quartiles (statistics.quantiles, n=4) as JSON.

  python3 benchmark/bench.py spread [--sets 2] [--seeds 10] [--out FILE]
      Runs every workload once at each of the seeds 1..--seeds per set,
      --sets times, and prints each end-to-end metric's spread, the
      quartile distance over the median, against its bound and a third
      of it, and how far each set's median moved from the first set's.
      Adds the sets to FILE under "seed_sets".

  python3 benchmark/bench.py pairs PARENT CHANGE [--pairs 10] [--workloads a,b]
      Runs the benchmark of two checkouts in alternating order, pair by
      pair, and prints each side's median and quartiles per metric, the
      share of pairs the change won, and whether the difference clears
      the parent's own spread.

Run from the repository root. Each invocation goes through
benchmark/run.sh of the checkout it measures.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["gamma_burst", "paper_e2e", "llm_decode", "place_churn"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(root, workload, seed, trace, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {root}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: {res}")
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    # The first line names the machine: "workload W seed N: GOMAXPROCS g, nproc n, goX".
    metrics["_header"] = lines[0]
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def baseline(args):
    bench = spec(ROOT)
    names = [m["name"] for m in bench["end_to_end"]]
    header = invoke(ROOT, "gamma_burst", 1, 0, 1)["_header"]
    out = {
        "machine": {
            "benchmark": header.split(": ", 1)[1],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "platform": platform.platform(),
        },
        "seconds": bench["run_seconds"],
        "sets": [],
        "sizes": {},
    }
    for s in range(args.sets):
        per = {}
        for w in WORKLOADS:
            runs = [invoke(ROOT, w, 1, 0, bench["run_seconds"]) for _ in range(args.runs)]
            per[w] = {n: summary([r[n] for r in runs]) for n in names}
            print(f"set {s + 1} {w}: " + ", ".join(f"{n} {per[w][n]['median']:.4g}" for n in names), flush=True)
        out["sets"].append({"seed": 1, "runs": args.runs, "workloads": per})
    sizes = ["workload.arrivals", "core.served", "sched.calls", "sched.failed", "sim.ticks"]
    for seed in (1, 2):
        for w in WORKLOADS:
            m = invoke(ROOT, w, seed, 1, bench["run_seconds"])
            out["sizes"].setdefault(w, {})[f"seed{seed}"] = {k: m[k] for k in sizes}
    update(args.out, out)


def update(path, keys):
    """Sets keys in the JSON object in path, keeping its other keys."""
    out = {}
    if os.path.exists(path):
        with open(path) as f:
            out = json.load(f)
    out.update(keys)
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


def spread(args):
    bench = spec(ROOT)
    sets = []
    for s in range(args.sets):
        per = {}
        for w in WORKLOADS:
            runs = [invoke(ROOT, w, seed, 0, bench["run_seconds"]) for seed in range(1, args.seeds + 1)]
            per[w] = {}
            for m in bench["end_to_end"]:
                name = m["name"]
                sm = summary([r[name] for r in runs])
                per[w][name] = sm
                first = sets[0][w][name]["median"] if sets else sm["median"]
                drift = (sm["median"] - first) / first
                if m["better"] == "higher":
                    drift = -drift
                verdict = "ok" if sm["spread"] <= m["bound"] / 3 else "within bound" if sm["spread"] <= m["bound"] else "TOO NOISY"
                print(f"set {s + 1} {w:12s} {name:11s} median {sm['median']:.4g}  spread {sm['spread']:.3f} "
                      f"(bound {m['bound']}, third {m['bound'] / 3:.3f}): {verdict}; worse than set 1 by {100 * drift:+.1f}%",
                      flush=True)
        sets.append(per)
    update(args.out, {"seed_sets": {"seeds": f"1..{args.seeds}", "seconds": bench["run_seconds"], "sets": sets}})


def pairs(args):
    bench = spec(args.change)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for w in workloads:
        sides = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                sides[side].append(invoke(root, w, args.seed + i, 0, bench["run_seconds"]))
        print(f"== {w} ({args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1})")
        for name, m in bounds.items():
            par = [r[name] for r in sides["parent"]]
            chg = [r[name] for r in sides["change"]]
            better = (lambda a, b: a < b) if m["better"] == "lower" else (lambda a, b: a > b)
            wins = sum(better(c, p) for p, c in zip(par, chg))
            ps, cs = summary(par), summary(chg)
            gap = abs(cs["median"] - ps["median"])
            worse = (cs["median"] - ps["median"]) / ps["median"]
            if m["better"] == "higher":
                worse = -worse
            spread = (ps["q3"] - ps["q1"]) / ps["median"]
            if wins >= 0.9 * args.pairs and gap > ps["q3"] - ps["q1"] and worse < 0:
                verdict = "gain"
            elif worse > m["bound"]:
                verdict = "regression"
            elif spread > m["bound"] and not all(better(c, p) for c in chg for p in par):
                verdict = "unresolved (parent spread wider than the bound)"
            else:
                verdict = "no regression"
            print(f"  {name:12s} parent {ps['median']:.4g} [{ps['q1']:.4g}, {ps['q3']:.4g}]  "
                  f"change {cs['median']:.4g} [{cs['q1']:.4g}, {cs['q3']:.4g}]  "
                  f"change won {wins}/{args.pairs}  worse by {100 * worse:+.1f}% (bound {100 * m['bound']:.0f}%): {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    b = sub.add_parser("baseline")
    b.add_argument("--sets", type=int, default=2)
    b.add_argument("--runs", type=int, default=5)
    b.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    sp = sub.add_parser("spread")
    sp.add_argument("--sets", type=int, default=2)
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    args = ap.parse_args()
    {"baseline": baseline, "spread": spread, "pairs": pairs}[args.cmd](args)


if __name__ == "__main__":
    main()
