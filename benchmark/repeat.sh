#!/usr/bin/env bash
# Repeatability check, the way the driver does it: two sets of N runs
# (default 10) per workload on one build, run i of a set with seed i, the
# two sets interleaved run by run. Per end-to-end metric and set it prints
# median, quartiles, (Q3 - Q1) / median and (max - min) / median, and it
# fails if a set's quartile spread exceeds the metric's bound (setup_s
# excepted) or the second set's median is worse than the first's by more
# than the bound. The table is also written, with a host fingerprint, to
# benchmark/baselines/<fingerprint>.json.
#
#   benchmark/repeat.sh [N]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec python3 - "${1:-10}" <<'PYTHON'
import json, os, statistics, subprocess, sys

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
target = os.environ["CARGO_TARGET_DIR"]
work = os.path.join(target, "aiql-bench-work")


def run(workload, seed):
    out = subprocess.run(
        [os.path.join(target, "release", "aiql-benchmark"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
         "--work-dir", work],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


def sh(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


os.makedirs(work, exist_ok=True)
fingerprint = {
    "nproc": os.cpu_count(),
    "rustc": sh("rustc", "-V"),
    "work_dir_fs": sh("stat", "-f", "-c", "%T", work),
    "git_sha": sh("git", "rev-parse", "--short", "HEAD"),
    "seeds": list(range(1, runs + 1)),
    "run_seconds": spec["run_seconds"],
}
report = {"fingerprint": fingerprint, "workloads": {}}
failed = False
for workload in (w["name"] for w in spec["workloads"]):
    sets = ([], [])
    for seed in fingerprint["seeds"]:
        for s in sets:
            s.append(run(workload, seed))
    print(f"== {workload}")
    rows = report["workloads"][workload] = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = []
        for s in sets:
            values = [r[name] for r in s]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats.append({
                "median": median, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / median,
                "range_share": (max(values) - min(values)) / median,
            })
        sign = 1 if metric["better"] == "lower" else -1
        drift = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
        verdict = "ok"
        if name != "setup_s" and max(s["iqr_share"] for s in stats) > bound:
            verdict = "SPREAD ABOVE BOUND"
        if drift > bound:
            verdict = "SECOND SET WORSE THAN BOUND"
        failed |= verdict != "ok"
        rows[name] = {"unit": metric["unit"], "bound": bound, "sets": stats,
                      "second_worse_by": drift, "verdict": verdict}
        for i, s in enumerate(stats):
            print(f"  {name:<20} set {i + 1}  median {s['median']:>14.4f} {metric['unit']:<4}"
                  f" q1 {s['q1']:>14.4f} q3 {s['q3']:>14.4f}"
                  f"  iqr {s['iqr_share']:7.2%}  range {s['range_share']:7.2%}")
        print(f"  {name:<20} second set worse by {drift:+.2%} of bound {bound:.0%}: {verdict}")

slug = "{nproc}cpu-{work_dir_fs}-{git_sha}".format(**fingerprint)
slug = "".join(c if c.isalnum() or c in "-." else "_" for c in slug)
path = os.path.join("benchmark", "baselines", f"{slug}.json")
os.makedirs(os.path.dirname(path), exist_ok=True)
with open(path, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
print(f"wrote {path}")
sys.exit(1 if failed else 0)
PYTHON
