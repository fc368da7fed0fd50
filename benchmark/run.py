#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

Run from the root of a checkout:

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build the project with dune, run one workload in a fresh process and
      print its result as the last line of standard output.
  python3 benchmark/run.py --workload all [--seed N] [--trace 0|1]
      Every workload in turn, each in its own process; print every metric
      with its unit.
  Either form takes --record FILE: append each run, with host metadata
  and the git revision, to a JSON-lines file.
  python3 benchmark/run.py compare A.jsonl B.jsonl
      Compare two recorded run sets against BENCHMARK.json's bounds: one
      row per workload, each end-to-end metric better / same / worse /
      unresolved.
  python3 benchmark/run.py smoke
      The test-suite smoke run, inside dune's build tree (no build step).
"""

import argparse
import json
import statistics
import subprocess
import sys

EXE = "_build/default/benchmark/xpdlbench.exe"
XPDLTOOL = "_build/default/bin/xpdltool.exe"


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./benchmark/xpdlbench.exe", "./bin/xpdltool.exe"]
    try:
        status = subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        sys.exit(2)
    if status != 0:
        print("run.py: the build failed", file=sys.stderr)
        sys.exit(2)


def run_workload(exe, tool, workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit status, stdout lines, host, result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--xpdltool", tool] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    host = result = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, lines, host, result


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main_run(argv):
    spec = load_spec()
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record")
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        p.error(f"unknown workload {args.workload}; one of: all, {', '.join(names)}")
    build()
    single = args.workload != "all"
    status = 0
    results = {}
    for name in ([args.workload] if single else names):
        code, lines, host, result = run_workload(EXE, XPDLTOOL, name, args.seed, args.seconds,
                                                 args.trace)
        if args.record and result is not None:
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "git_rev": git_rev(), "host": host,
                      "result": result}
            with open(args.record, "a") as f:
                f.write(json.dumps(record) + "\n")
        if single:
            print("\n".join(lines), flush=True)
            return code
        if result is None:
            print(f"{name}: failed (exit {code})", flush=True)
            status = 1
            continue
        results[name] = result
        verdict = "ok" if result["correct"] else "OUTPUT CHECK FAILED"
        print(f"{name}: {verdict}, {result['failed']}/{result['attempted']} ops failed",
              flush=True)
        for metric, m in result["metrics"].items():
            print(f"  {metric:36} {m['value']:>16.6g} {m['unit']}", flush=True)
        status |= 0 if result["correct"] else 1
    print(json.dumps(results))
    return status


def load_records(path):
    """workload -> metric -> values, from the timed runs of a record file."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] != 0 or not rec["result"]["correct"]:
                continue
            for metric, m in rec["result"]["metrics"].items():
                runs.setdefault(rec["workload"], {}).setdefault(metric, []).append(m["value"])
    return runs


def judge(base, cand, better, bound):
    """Verdict on candidate runs against base runs of one metric."""
    sign = 1 if better == "lower" else -1
    mb, mc = statistics.median(base), statistics.median(cand)
    worse_by = sign * (mc - mb) / mb
    iqr = 0.0
    if len(base) >= 2:
        q = statistics.quantiles(base, n=4)
        iqr = q[2] - q[0]
    all_better = all(sign * (c - b) < 0 for b in base for c in cand)
    all_worse = all(sign * (c - b) > 0 for b in base for c in cand)
    if iqr / mb > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        pairs = list(zip(base, cand))
        wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
        gain = worse_by < 0 and abs(mc - mb) > iqr and wins >= 0.9 * len(pairs)
        verdict = "better" if gain else "same"
    return verdict, (mc - mb) / mb


def main_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("base")
    p.add_argument("candidate")
    args = p.parse_args(argv)
    spec = load_spec()
    base, cand = load_records(args.base), load_records(args.candidate)
    worse = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in cand:
            print(f"{name:18} no runs on both sides")
            continue
        cells = []
        for m in spec["end_to_end"]:
            b, c = base[name].get(m["name"]), cand[name].get(m["name"])
            if not b or not c:
                cells.append(f"{m['name']} missing")
                continue
            verdict, change = judge(b, c, m["better"], m["bound"])
            worse |= verdict == "worse"
            cells.append(f"{m['name']} {verdict} ({change:+.1%})")
        n = min(len(base[name]["setup_s"]), len(cand[name]["setup_s"]))
        print(f"{name:18} n={n}  " + "  ".join(cells))
    return 1 if worse else 0


def main_smoke():
    spec = load_spec()
    expected = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, lines, _, result = run_workload("benchmark/xpdlbench.exe", "bin/xpdltool.exe",
                                                  w["name"], 1, 1, trace, smoke=True)
            where = f"{w['name']} --trace {trace}"
            if result is None:
                problems.append(f"{where}: exit {code}, output {lines[-3:]}")
                continue
            emitted = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if emitted != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']}/{result['attempted']} ops failed")
    for problem in problems:
        print(f"run.py smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["compare"]:
        sys.exit(main_compare(sys.argv[2:]))
    if sys.argv[1:2] == ["smoke"]:
        sys.exit(main_smoke())
    sys.exit(main_run(sys.argv[1:]))
