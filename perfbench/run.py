#!/usr/bin/env python3
"""Builds and runs the unn closed-loop benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload nn_rpc --seed 1 --seconds 10 --trace 0

builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload in its own process and prints a metric
table, the full report (every metric, output checks, provenance) and, as
the last line, the result object {"correct", "attempted", "failed",
"metrics"} holding the metrics BENCHMARK.json declares: `end_to_end` with
`--trace 0`, `per_layer` with `--trace 1`.

Steadiness mode runs a workload k times with seeds seed..seed+k-1 and
prints, per end-to-end metric, the median, quartiles, the interquartile and
max-min spreads as shares of the median, and flags spreads over the bound
BENCHMARK.json fixes:

    python3 perfbench/run.py --workload all --repeat 5 --seed 1
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Release build of the benchmark package; returns the binary path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if res.returncode != 0:
        log(f"build failed with exit code {res.returncode}")
        return None
    return os.path.join(target_dir(), "release", "unn-perfbench")


def source_digest():
    """sha256 over the sources a build reads, so two results can be checked
    for comparability without a git repository."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        elif os.path.isdir(path):
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
                files += [os.path.join(d, n) for n in names]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def revision():
    rev = f"tree:{source_digest()}"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            if sha:
                rev = f"git:{sha}{'+dirty' if dirty else ''} {rev}"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def run_once(binary, workload, seed, seconds, trace, rev):
    """Runs one workload process; returns (exit code, report dict or None)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--revision", rev,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{workload}: run failed: {e}")
        return 1, None
    sys.stderr.write(res.stderr)
    lines = [l for l in res.stdout.splitlines() if l.startswith('{"report"')]
    if not lines:
        log(f"{workload}: no report (exit code {res.returncode})")
        return res.returncode or 1, None
    return res.returncode, json.loads(lines[-1])["report"]


def contract_metrics(spec, report, trace):
    """The declared metrics, taken from the report; None if any is missing
    or reported in another unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layers"] if trace else report["e2e"]
    out = {}
    for m in declared:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {got}")
            return None
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def print_table(report, trace):
    prov = report["provenance"]
    print(f"# {report['workload']}  seed={prov['seed']}  correct={report['correct']}  "
          f"attempted={report['attempted']}  failed={report['failed']}  "
          f"tail=p{prov['tail_percentile']:g} of {prov['tail_samples']} samples "
          f"({prov['samples_beyond_tail']} beyond)  revision={prov['revision']}")
    for name, m in sorted((report["layers"] if trace else report["e2e"]).items()):
        print(f"#   {name:40s} {m['value']:>16.6g} {m['unit']}")


def single(args, spec):
    binary = build()
    if binary is None:
        return 1
    code, report = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                            revision())
    if report is None:
        return code or 1
    metrics = contract_metrics(spec, report, args.trace)
    if metrics is None:
        return 1
    print_table(report, args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(report["correct"]) and code == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return code


def repeat(args, spec):
    binary = build()
    if binary is None:
        return 1
    rev = revision()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    worst = "ok"
    for w in workloads:
        values = {}
        for k in range(args.repeat):
            seed = args.seed + k
            code, report = run_once(binary, w, seed, args.seconds, 0, rev)
            if report is None or code != 0:
                log(f"{w} seed {seed}: run failed")
                return 1
            for name, m in report["e2e"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"{w} seed {seed}: " + ", ".join(
                f"{n}={report['e2e'][n]['value']:.5g}" for n in bounds if n in report["e2e"]))
        print(f"# {w}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
              f"{args.seconds} s each, revision {rev}")
        print(f"#   {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        summary[w] = {}
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if iqr > bound:
                    flag, worst = "OVER BOUND", "over"
                elif iqr > bound / 3:
                    flag = "over bound/3"
                    worst = worst if worst == "over" else "warn"
            print(f"#   {name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f} {rng:9.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "iqr_frac": iqr,
                                "range_frac": rng, "bound": bound, "values": vals}
    print(json.dumps({"steadiness": summary, "verdict": worst}))
    return 1 if worst == "over" else 0


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: run each workload this many times")
    args = p.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names and not (args.repeat and args.workload == "all"):
        p.error(f"unknown workload {args.workload!r}; choose from {names}")
    return repeat(args, spec) if args.repeat else single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
