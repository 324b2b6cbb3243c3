#!/bin/sh
# CI entry point: the tier-1 build and test suites at two job counts, the
# perfbench smoke test (every BENCHMARK.json workload at tiny size, its
# correctness gate and fault injection), and the two timing gates: a paired
# smoke bench (sequential vs parallel) whose parallel run must not be
# slower, and a bench run in which batched verification at N=16 must beat
# individual verification per proof on both backends.
#
# Everything else CI used to check lives under `dune runtest`: the Table II
# ledgers and region trees (test/test_attrib.ml), proof byte-identity and the
# proof service (test/test_serve.ml), the adversary grid
# (test/test_adversary.ml), the optimiser (test/test_opt.ml) and the CLI's
# offline and served surface with its exit codes (test/cli.t).
set -eu

cd "$(dirname "$0")/.."

NPROC=$(nproc 2>/dev/null || echo 1)

echo "== dune build =="
dune build

echo "== dune runtest (jobs=1) =="
ZKVC_JOBS=1 dune runtest --force

echo "== dune runtest (jobs=max, nproc=$NPROC) =="
ZKVC_JOBS=0 dune runtest --force

echo "== perfbench smoke (every workload, gate, fault injection) =="
dune build @perfbench/test/perfbench-smoke

echo "== smoke bench (tab2, scale 16, repeat 3, jobs=1 vs jobs=max) =="
BENCH_JSON=${BENCH_JSON:-/tmp/bench.json}
BENCH_JSON_PAR=${BENCH_JSON_PAR:-/tmp/bench-par.json}
rm -f "$BENCH_JSON" "$BENCH_JSON_PAR"
dune exec bench/main.exe -- --only tab2 --scale 16 --repeat 3 --jobs 1 --json "$BENCH_JSON"
dune exec bench/main.exe -- --only tab2 --scale 16 --repeat 3 --jobs 0 --json "$BENCH_JSON_PAR"

for f in "$BENCH_JSON" "$BENCH_JSON_PAR"; do
    if [ ! -s "$f" ]; then
        echo "ci: bench json report missing or empty: $f" >&2
        exit 1
    fi
done

# total proving seconds across the report's measurement rows
sum_prove() {
    awk -F: '/"prove_s"/ { gsub(/[ ,]/, "", $2); s += $2 } END { printf "%.6f", s }' "$1"
}
SEQ=$(sum_prove "$BENCH_JSON")
PAR=$(sum_prove "$BENCH_JSON_PAR")
echo "ci: prove totals  jobs=1 ${SEQ}s  jobs=max ${PAR}s"

if [ "$NPROC" -le 1 ]; then
    # single-core runner: worker domains timeshare one CPU, so no speedup
    # is possible; determinism and correctness were still exercised above
    echo "ci: nproc=1, skipping the parallel-not-slower assertion"
else
    # tolerate noise but catch pathological slowdowns from the pool
    awk -v seq="$SEQ" -v par="$PAR" 'BEGIN {
        if (par > seq * 1.25) {
            printf "ci: parallel bench slower than sequential (%.3fs vs %.3fs)\n", par, seq
            exit 1
        }
    }' </dev/null
fi

echo "== amortisation gate: batched beats individual at N=16 =="
# batch-nN rows carry per-proof individual verify in setup_s and per-proof
# batched verify in verify_s; the awk below asserts the headline claim on
# a fresh run — at N=16 the batched per-proof cost beats the individual
# per-proof cost on both backends
BENCH_AGG_JSON=${BENCH_AGG_JSON:-/tmp/bench-agg.json}
rm -f "$BENCH_AGG_JSON"
dune exec bench/main.exe -- --only agg --scale 16 --repeat 3 --jobs 1 \
    --agg-max 16 --json "$BENCH_AGG_JSON"
awk '
/"scheme": "batch-n16"/ { want = 1 }
want && /^      "setup_s":/ { ind = $2 + 0 }
want && /^      "verify_s":/ {
    per = $2 + 0
    if (!(per < ind)) {
        printf "ci: batch-n16 per-proof %.4fs is not cheaper than individual %.4fs\n", per, ind
        exit 1
    }
    rows += 1
    want = 0
}
END { if (rows < 2) { print "ci: expected a batch-n16 row per backend"; exit 1 } }' \
    "$BENCH_AGG_JSON" || exit 1
echo "ci: amortisation gate ok ($BENCH_AGG_JSON)"

echo "ci: ok ($BENCH_JSON, $BENCH_JSON_PAR)"
