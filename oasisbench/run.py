#!/usr/bin/env python3
"""Build and run the OASIS benchmark.

    python3 oasisbench/run.py --workload attack_cell --seed 1 --seconds 10 --trace 0

builds the `oasisbench` package (release, offline) from this checkout
and runs one workload: `attack_cell`, `cohort_train`,
`campaign_adaptive`, or `all` (every workload, one after the other in
one process). `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer metrics of a separate traced run. The last line of
standard output is the JSON result.

`--runs N` repeats the run in N processes at seeds seed, seed+1, ...
and prints, for every metric, the median, the quartiles and the run
count across runs, flagging a metric whose runs fall into two
clusters; its JSON line then carries the medians.

The build goes to $CARGO_TARGET_DIR, by default `.bench_build` at the
checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["attack_cell", "cohort_train", "campaign_adaptive", "all"]
# One run must end within 180 s; leave room for process start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "oasisbench")


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs the binary once; returns its parsed result or None."""
    env = dict(os.environ)
    env["OASISBENCH_COMMIT"] = commit()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: run did not finish within {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(f"error: benchmark exited with code {done.returncode}")
        return None
    for line in lines[:-1]:
        echo(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("error: the benchmark's last line is not JSON")
        return None


def two_clusters(values):
    """True when the sorted values split at their widest gap into two
    groups of at least two runs each, with the gap wider than 10% of
    the median and wider than either group's own range."""
    v = sorted(values)
    if len(v) < 4:
        return False
    gaps = [(v[i + 1] - v[i], i) for i in range(len(v) - 1)]
    gap, i = max(gaps)
    left, right = v[: i + 1], v[i + 1:]
    if len(left) < 2 or len(right) < 2:
        return False
    within = max(left[-1] - left[0], right[-1] - right[0])
    return gap > 0.1 * abs(statistics.median(v)) and gap > within


def dispersion(results):
    """Prints per-metric median, quartiles and run count; returns the
    medians as a metrics object."""
    names = list(results[0]["metrics"])
    medians = {}
    print(f"# dispersion over {len(results)} runs: metric median q1 q3 n (iqr/median)")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else 0.0
        flag = "  TWO CLUSTERS: " + ", ".join(f"{x:.4g}" for x in sorted(values)) \
            if two_clusters(values) else ""
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3} "
              f"({rel:.3f}) {unit}{flag}")
        medians[name] = {"value": med, "unit": unit}
    return medians


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1)
    args = p.parse_args()
    if args.runs < 1:
        p.error("--runs must be at least 1")

    binary = build()
    if binary is None:
        log("error: the benchmark did not build")
        return 1

    results = []
    for k in range(args.runs):
        # Several runs print only the first run's stamp, then the
        # dispersion table.
        def echo(line, first=k == 0):
            if args.runs == 1 or (first and line.startswith("# stamp")):
                print(line)

        result = run_once(binary, args.workload, args.seed + k, args.seconds,
                          args.trace, echo)
        if result is None:
            return 1
        results.append(result)
    if args.runs == 1:
        print(json.dumps(results[0]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": dispersion(results),
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
