#!/usr/bin/env bash
# Determinism wall.
#
#   ci/check_determinism.sh [OUT_DIR] [NODES]
#
# Runs every suite program on a NODES-node mesh (default 8) under all
# three back-ends, plus open-loop serve legs and work-stealing legs,
# once with TAMSIM_JOBS=1 and once with TAMSIM_JOBS=4, then
# byte-compares everything the runs produce: stdout (run summary,
# per-node cycle accounting), mesh_links.csv, mesh_trace.json,
# profile.json, and the serve CSVs. TAMSIM_JOBS fans independent runs
# across host threads (`par_map`); it must never change a byte of
# output. Finally the golden-figure gate re-runs under a TAMSIM_JOBS
# override to pin the CSV pipeline itself.
set -euo pipefail

out="${1:-det-out}"
nodes="${2:-8}"
bin="${TAMSIM:-./target/release/tamsim}"
progs=(fib MMT QS DTW Paraffins Wavefront SS)
impls=(am am-en md)
mesh_files=(mesh_links.csv mesh_trace.json profile.json)
serve_files=(serve_latency.csv serve_requests.csv serve_depth.csv profile.json)

if [ ! -x "$bin" ]; then
    echo "error: tamsim binary '$bin' not built (cargo build --release -p tamsim-cli)" >&2
    exit 2
fi

rm -rf "$out"
mkdir -p "$out"
fail=0

# leg NAME FILES... -- TAMSIM ARGS...: run the command under both job
# counts into $out/NAME/jobs{1,4} and byte-compare stdout plus every
# listed per-back-end file.
leg() {
    local name="$1"
    shift
    local files=()
    while [ "$1" != "--" ]; do
        files+=("$1")
        shift
    done
    shift
    mkdir -p "$out/$name"
    for jobs in 1 4; do
        TAMSIM_JOBS=$jobs "$bin" "$@" --out "$out/$name/jobs$jobs" \
            >"$out/$name/jobs$jobs.stdout"
    done
    if ! cmp -s "$out/$name/jobs1.stdout" "$out/$name/jobs4.stdout"; then
        echo "FAIL: $name stdout differs between TAMSIM_JOBS=1 and 4" >&2
        diff "$out/$name/jobs1.stdout" "$out/$name/jobs4.stdout" >&2 || true
        fail=1
    fi
    for imp in "${impls[@]}"; do
        for f in "${files[@]}"; do
            if ! cmp -s "$out/$name/jobs1/$imp/$f" "$out/$name/jobs4/$imp/$f"; then
                echo "FAIL: $name/$imp/$f differs between TAMSIM_JOBS=1 and 4" >&2
                fail=1
            fi
        done
    done
    echo "ok: $name byte-identical across TAMSIM_JOBS=1/4 (${#impls[@]} back-ends, $nodes nodes)"
}

for prog in "${progs[@]}"; do
    leg "$prog" "${mesh_files[@]}" -- mesh "$prog" --small --nodes "$nodes" --impl all
done
leg serve "${serve_files[@]}" -- serve --rate 20 --requests 24 --seed 3 \
    --nodes "$nodes" --impl all
# Work stealing: one batch leg (MMT, the suite's heaviest communicator)
# and one corner-skewed serve leg (every request lands on node 0 — the
# workload that actually triggers migrations).
leg steal "${mesh_files[@]}" -- mesh MMT --small --nodes "$nodes" --impl all --policy steal
leg steal-serve "${serve_files[@]}" -- serve --rate 20 --requests 24 --seed 3 \
    --nodes "$nodes" --impl all --policy steal --origins corner

if [ "$fail" -ne 0 ]; then
    echo "determinism wall: FAILED" >&2
    exit 1
fi

# The figure pipeline under a job override: every golden CSV must still
# match tests/golden/ byte-for-byte.
TAMSIM_JOBS=2 "$(dirname "$0")/check_goldens.sh" "$out/golden-jobs2"
echo "determinism wall: all artifacts byte-identical across TAMSIM_JOBS"
