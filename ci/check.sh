#!/bin/sh
# Repository check: formatting (when ocamlformat is available), build,
# tests, bench smoke + regression gate, kill-and-resume, and the golden
# determinism sweep.
# Run from the repository root:  sh ci/check.sh
# Environment:
#   BENCH_GATE=strict   make a >3x bench slowdown fatal (CI sets this;
#                       off by default so laptops never fail on noise)
set -eu

cd "$(dirname "$0")/.."
ROOT=$(pwd)

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping format check (ocamlformat not installed)"
fi

if command -v shellcheck >/dev/null 2>&1; then
  echo "== shellcheck"
  shellcheck ci/*.sh
else
  echo "== skipping shellcheck (not installed)"
fi

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== bench smoke (stats JSON round-trip)"
# run from the scratch dir so the smoke artifact never lands in the repo
(cd "$TMP" && "$ROOT/_build/default/bench/main.exe" smoke)

echo "== bench gate (indexed engine vs BENCH_engine.json baselines)"
BENCH_GATE=${BENCH_GATE:-off} dune exec bench/main.exe -- gate

echo "== kill-and-resume (checkpointed chase survives an injected crash)"
CLI=_build/default/bin/guarded_cli.exe
PROG=examples/programs/prog_budget.gd
set -- --max-level 1000 --budget-facts 40
"$CLI" chase "$PROG" "$@" --stats "$TMP/base.json" > /dev/null
# kill the only attempt mid-saturation; the checkpoint of its last clean
# pass boundary stays on disk
set +e
"$CLI" chase "$PROG" "$@" --retries 0 \
  --fault-plan hit:60 --checkpoint "$TMP/ck.json" \
  > /dev/null 2>&1
killed=$?
set -e
[ "$killed" -eq 1 ] || { echo "expected exit 1 from the killed run, got $killed"; exit 1; }
[ -s "$TMP/ck.json" ] || { echo "no checkpoint emitted by the killed run"; exit 1; }
"$CLI" chase "$PROG" "$@" --resume "$TMP/ck.json" --stats "$TMP/resumed.json" > /dev/null
# the resumed report must agree with the uninterrupted one on everything
# before the histograms/span tail (those only cover the post-resume part)
sed -E 's/,"histograms":.*$//' "$TMP/base.json" > "$TMP/base.cut"
sed -E 's/,"histograms":.*$//' "$TMP/resumed.json" > "$TMP/resumed.cut"
diff "$TMP/base.cut" "$TMP/resumed.cut" \
  || { echo "resumed stats diverge from the uninterrupted run"; exit 1; }

echo "== answers smoke (streaming enumeration, both pipelines)"
"$CLI" answers examples/programs/prog_eval.gd --query who --stats "$TMP/answers.json" \
  | grep -q "(ada)" || { echo "answers: expected (ada) for prog_eval/who"; exit 1; }
grep -q '"name":"answers"' "$TMP/answers.json" \
  || { echo "answers: --stats report missing"; exit 1; }
"$CLI" answers examples/programs/prog_fpt.gd --query who --fpt > /dev/null \
  || { echo "answers: --fpt pipeline failed"; exit 1; }
# a budget-cut enumeration must stay exit 0 and say so
"$CLI" answers examples/programs/prog_eval.gd --query who --budget-facts 0 \
  | grep -q "partial" || { echo "answers: budget cut not reported"; exit 1; }

echo "== serve smoke (incremental maintenance applies a mutation log)"
"$CLI" serve examples/programs/university.gd \
  --log examples/programs/university.mut \
  --stats "$TMP/serve.json" > "$TMP/serve.out"
grep -q "serve: 5 mutations applied (2 inserts, 2 deletes, 1 no-ops)" \
  "$TMP/serve.out" || { echo "serve: unexpected mutation summary"; exit 1; }
if grep -q "faculty(ada)" "$TMP/serve.out"; then
  echo "serve: deleted subtree still present"; exit 1
fi
grep -q "teaches(turing," "$TMP/serve.out" \
  || { echo "serve: inserted professor's chain missing"; exit 1; }
# the maintenance counters must land in the stats report with the exact
# values this program + log produce (they are deterministic)
for counter in '"incr.inserts":2' '"incr.deletes":2' '"incr.noops":1' \
               '"incr.repaired":9' '"incr.overdeleted":11' \
               '"incr.rederived":2' '"incr.deleted":9' '"index.removes":11'; do
  grep -q "$counter" "$TMP/serve.json" \
    || { echo "serve: stats missing $counter"; exit 1; }
done

echo "== server load smoke (workers 1 vs 4, sorted transcripts identical)"
SERVER_LOAD_REQUESTS=${SERVER_LOAD_REQUESTS:-200} sh ci/server_load.sh

echo "== golden determinism (chase, answers, serve vs ci/golden)"
sh ci/determinism.sh

echo "== crash recovery (WAL kill loop + torn-record truncation)"
sh ci/crash_recovery.sh

echo "== OK"
