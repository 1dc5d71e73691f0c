#!/usr/bin/env bash
# Two-tier benchmark regression gate.
#
#   ci/bench_compare.sh SUMMARY_JSON [BASELINE_JSON]
#
# Compares a freshly produced perf summary (perf_summary.json or
# mesh_perf_summary.json — the script detects which) against the committed
# baseline in results/bench_baseline.json. Timings regress upward,
# speedups and MIPS regress downward.
#
# Two thresholds:
#
#   * past 20% drift in the bad direction: a GitHub Actions `::warning::`
#     annotation. CI runners have noisy clocks; 20–30% surfaces drift on
#     the PR without blocking it.
#   * past 30%: a `::error::` annotation and a nonzero exit. A 30% swing
#     does not come from clock noise — it is a real regression (or a real
#     machine change, in which case re-bless results/bench_baseline.json
#     in the same PR).
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 SUMMARY_JSON [BASELINE_JSON]" >&2
    exit 2
fi

summary="$1"
baseline="${2:-$(dirname "$0")/../results/bench_baseline.json}"

if [ ! -s "$summary" ]; then
    echo "::warning::bench_compare: summary '$summary' missing or empty; skipping"
    exit 0
fi
if [ ! -s "$baseline" ]; then
    echo "::warning::bench_compare: baseline '$baseline' missing or empty; skipping"
    exit 0
fi

python3 - "$summary" "$baseline" <<'EOF'
import json
import sys

WARN = 0.20  # annotate past 20% drift in the bad direction
FAIL = 0.30  # fail the build past 30%

summary_path, baseline_path = sys.argv[1], sys.argv[2]
summary = json.load(open(summary_path))
baseline = json.load(open(baseline_path))

warnings = []
failures = []


def check(name, base, now, lower_is_better):
    """Classify `now` against `base`: ok, warn past 20%, fail past 30%."""
    if base is None or now is None or base <= 0:
        return
    delta = (now - base) / base
    bad = delta if lower_is_better else -delta
    arrow = "slower" if lower_is_better else "lower"
    line = f"{name}: baseline {base:g}, now {now:g} ({delta:+.1%})"
    if bad > FAIL:
        failures.append(f"{line} — more than {FAIL:.0%} {arrow}")
    elif bad > WARN:
        warnings.append(f"{line} — more than {WARN:.0%} {arrow}")
    else:
        print(f"  ok  {line}")


if "lockstep_seconds" in summary:
    # mesh_perf_summary.json: driver timings and their ratio.
    base = baseline.get("mesh", {})
    check("mesh speedup", base.get("speedup"), summary.get("speedup"), False)
    check(
        "mesh lockstep_seconds",
        base.get("lockstep_seconds"),
        summary.get("lockstep_seconds"),
        True,
    )
    check(
        "mesh fastforward_seconds",
        base.get("fastforward_seconds"),
        summary.get("fastforward_seconds"),
        True,
    )
else:
    # perf_summary.json: record/replay engine and dispatch harness.
    base = baseline.get("machine", {})
    check(
        "machine_seconds",
        base.get("machine_seconds"),
        summary.get("machine_seconds"),
        True,
    )
    check("suite speedup", base.get("speedup"), summary.get("speedup"), False)
    dispatch = summary.get("dispatch", {})
    check(
        "dispatch_speedup",
        base.get("dispatch_speedup"),
        dispatch.get("dispatch_speedup"),
        False,
    )
    base_mips = base.get("decoded_mips", {})
    for prog in dispatch.get("programs", []):
        check(
            f"decoded MIPS ({prog['name']})",
            base_mips.get(prog["name"]),
            prog.get("decoded_mips"),
            False,
        )

for w in warnings:
    print(f"::warning::bench regression vs {baseline_path}: {w}")
for f in failures:
    print(f"::error::bench regression vs {baseline_path}: {f}")
if failures:
    print(f"{len(failures)} metric(s) regressed past {FAIL:.0%}: failing")
    sys.exit(1)
if warnings:
    print(f"{len(warnings)} metric(s) regressed past {WARN:.0%} (warn-only)")
else:
    print(f"bench_compare: all metrics within {WARN:.0%} of {baseline_path}")
EOF
