#!/usr/bin/env python3
"""Run-to-run steadiness of the ingest benchmark's end-to-end metrics.

    python3 ingest_bench/steadiness.py --runs 10 --sets 2 \
        --out ingest_bench/results/steadiness.json

Runs every workload `--runs` times per set, each run with another seed
(set k uses seeds 100*k+1 .. 100*k+runs), with --trace 0 and the
run_seconds of BENCHMARK.json. For each end-to-end metric it reports the
median, the quartiles (statistics.quantiles(values, n=4)) and their spread
as a share of the median, and checks two things against the metric's bound:
the spread of every set, and that each later set's median is not worse than
the first set's by more than the bound. The spread of setup_s is reported
but not gated, as in the benchmark contract's acceptance rule: set-up time
follows host speed, which drifts between runs, and only its median is held
to the bound. Any failed run or correctness mismatch fails the check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    host = [json.loads(l[len("host: "):]) for l in lines if l.startswith("host: ")]
    if result is not None and host:
        result["host"] = host[0]
    if result is not None:
        result["steal_note"] = next((l[len("note: "):] for l in lines if "host steal" in l), "")
    return proc.returncode, result, time.monotonic() - start, proc.stderr[-2000:]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def worse_by(first, later, better):
    if first == 0:
        return float("inf")
    return (later - first) / first if better == "lower" else (first - later) / first


def render_markdown(summary, metrics):
    out = [f"# Steadiness: {summary['runs_per_set']} runs per set, "
           f"run_seconds {summary['run_seconds']}", "",
           "Spread = (q3 - q1) / median over the runs of a set; drift = how much "
           "worse a later set's median is than the first's, as a share of it.", "",
           "| workload | metric | bound | " + " | ".join(
               f"set {k} median [q1, q3] spread" for k in range(len(
                   next(iter(summary["workloads"].values()))["sets"]))) + " | drift | verdict |",
           "|---|---|---|" + "---|" * len(next(iter(summary["workloads"].values()))["sets"]) + "---|---|"]
    for workload, data in summary["workloads"].items():
        for name in metrics:
            cells = []
            for s in data["sets"]:
                m = s["metrics"].get(name)
                cells.append("-" if m is None else
                             f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] {m['spread']:.3f}")
            c = data["checks"][name]
            verdict = "ok" if c["spread_ok"] and c["drift_ok"] else "FAIL"
            if not c["spread_gated"]:
                verdict += " (spread not gated"
                verdict += ")" if c["within_bound"] else "; above bound)"
            elif not c["below_third_of_bound"]:
                verdict += " (spread > bound/3)"
            out.append(f"| {workload} | {name} | {c['bound']} | " + " | ".join(cells)
                       + f" | {c['worst_drift']:+.3f} | {verdict} |")
    out += ["", f"Accepted: {'yes' if summary['accepted'] else 'no'}", ""]
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    ok = True
    summary = {"run_seconds": bench["run_seconds"], "runs_per_set": args.runs, "workloads": {}}
    for workload in workloads:
        sets = []
        for k in range(args.sets):
            values = {name: [] for name in metrics}
            walls, ref_ms, steal_notes = [], [], []
            for i in range(args.runs):
                seed = 100 * k + i + 1
                code, result, wall, err = run_once(workload, seed, bench["run_seconds"])
                walls.append(wall)
                if code != 0 or result is None or not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{workload} seed {seed}: FAILED (exit {code})\n{err}", file=sys.stderr)
                    continue
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                ref_ms.append(result.get("host", {}).get("host.ref_ms"))
                steal_notes.append(result.get("steal_note", ""))
                print(f"{workload} set {k} seed {seed}: {wall:.1f} s", file=sys.stderr)
            sets.append({"seeds": [100 * k + i + 1 for i in range(args.runs)],
                         "wall_s_max": max(walls),
                         "host_ref_ms": ref_ms,
                         "steal_notes": steal_notes,
                         "metrics": {n: summarize(v) for n, v in values.items() if len(v) >= 2}})
        checks = {}
        for name, spec in metrics.items():
            spreads = [s["metrics"][name]["spread"] for s in sets if name in s["metrics"]]
            medians = [s["metrics"][name]["median"] for s in sets if name in s["metrics"]]
            drift = max((worse_by(medians[0], m, spec["better"]) for m in medians[1:]), default=0.0)
            gated = name != "setup_s"
            within = all(x <= spec["bound"] for x in spreads)
            spread_ok = within or not gated
            drift_ok = drift <= spec["bound"]
            steady = all(x < spec["bound"] / 3 for x in spreads)
            checks[name] = {"bound": spec["bound"], "spreads": spreads, "medians": medians,
                            "worst_drift": drift, "spread_gated": gated, "within_bound": within,
                            "spread_ok": spread_ok, "drift_ok": drift_ok,
                            "below_third_of_bound": steady}
            ok = ok and spread_ok and drift_ok and len(spreads) == args.sets
            print(f"{workload:11s} {name:20s} bound {spec['bound']:.2f}  spreads "
                  + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  drift {drift:+.3f}  {'ok' if spread_ok and drift_ok else 'FAIL'}"
                  + ("" if gated else "  (spread not gated)")
                  + ("" if steady else "  (spread above a third of the bound)"))
        summary["workloads"][workload] = {"sets": sets, "checks": checks}
    summary["accepted"] = ok
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
        with open(os.path.splitext(args.out)[0] + ".md", "w") as f:
            f.write(render_markdown(summary, metrics))
    print("steadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
