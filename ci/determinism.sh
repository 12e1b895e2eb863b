#!/bin/sh
# Golden determinism check: for every example program, an indexed chase
# must reproduce the committed exit code, stdout, checkpoint, and stats
# (up to the timing tail) under ci/golden/ byte for byte, and so must
# `answers`, `serve` (on university.mut and on the churn log), a
# WAL-recovered `serve` and the serve degradation ladder. A
# representation change in the fact store is caught here as drift. The goldens store the checkpoint's engine field normalised to
# FAMILY; runs are normalised the same way before comparison.
#
# Run from the repository root:    sh ci/determinism.sh
# Refresh the goldens (after an *intentional* observable change,
# reviewed like any other golden): GOLDEN_REGEN=1 sh ci/determinism.sh
set -eu

cd "$(dirname "$0")/.."

CLI=_build/default/bin/guarded_cli.exe
[ -x "$CLI" ] || { echo "determinism: build first (dune build)"; exit 1; }

# Content-hash short-circuit: the golden matrix depends only on the
# non-server sources, the example programs, the committed goldens, and
# this script — lib/server sits downstream of the frozen snapshot and
# cannot move a chase/answers/serve byte. When none of those changed
# since the last clean pass, the full 15-program sweep is a no-op: skip
# it. DETERMINISM_FORCE=1 reruns unconditionally.
STAMP=_build/ci-determinism.stamp
fingerprint() {
  {
    find lib bin examples ci/golden -type f ! -path "lib/server/*" \
      -exec cksum {} +
    cksum ci/determinism.sh
  } | sort | cksum
}
if [ -z "${DETERMINISM_FORCE:-}" ] && [ -z "${GOLDEN_REGEN:-}" ] \
  && [ -f "$STAMP" ] && [ "$(fingerprint)" = "$(cat "$STAMP")" ]; then
  echo "determinism: inputs unchanged since last clean pass, skipping (DETERMINISM_FORCE=1 to override)"
  exit 0
fi

GOLD=ci/golden
REGEN=${GOLDEN_REGEN:-}
[ -z "$REGEN" ] || mkdir -p "$GOLD"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# The goldens were recorded with the engine field normalised; keep doing
# so, so they need no regeneration.
norm_ck() {
  sed -E 's/"engine":"indexed"/"engine":"FAMILY"/' "$1"
}

# expect <got> <golden-name> <what> — byte comparison against a golden
expect() {
  if [ -n "$REGEN" ] && [ ! -f "$GOLD/$2" ]; then
    cp "$1" "$GOLD/$2"
  fi
  cmp -s "$1" "$GOLD/$2" || {
    echo "determinism: $3 drifted from golden $2"
    exit 1
  }
}

# run <tag> <program> <engine flags...> — capture every observable output
run() {
  tag=$1
  file=$2
  shift 2
  set +e
  "$CLI" chase "$file" --max-level 4 --budget-facts 200 "$@" \
    --checkpoint "$TMP/$tag.ck" --stats "$TMP/$tag.stats" \
    > "$TMP/$tag.out" 2> "$TMP/$tag.err"
  echo $? > "$TMP/$tag.code"
  set -e
  # programs that fail to parse produce neither artifact; normalise so
  # the byte comparison still applies (empty vs empty)
  if [ -f "$TMP/$tag.stats" ]; then
    sed -E 's/,"histograms":.*$//' "$TMP/$tag.stats" > "$TMP/$tag.cut"
  else
    : > "$TMP/$tag.cut"
  fi
  if [ -f "$TMP/$tag.ck" ]; then
    norm_ck "$TMP/$tag.ck" > "$TMP/$tag.nck"
  else
    : > "$TMP/$tag.nck"
  fi
}

compared=0
for prog in examples/programs/*.gd; do
  base=$(basename "$prog" .gd)
  run "$base.seq" "$prog" --engine indexed
  for aspect in code out cut nck; do
    expect "$TMP/$base.seq.$aspect" "$base.$aspect" "$base: indexed $aspect"
  done
  if [ "$(cat "$TMP/$base.seq.code")" = 0 ]; then
    compared=$((compared + 1))
  fi
done

# a sanity floor: the check is vacuous if nothing chased cleanly
[ "$compared" -ge 5 ] || {
  echo "determinism: only $compared programs chased cleanly"
  exit 1
}
echo "determinism: OK ($compared programs match goldens)"

# Answer enumeration: the `answers` command prints a canonical sorted
# set, so stdout and exit code must match the committed goldens.
run_answers() {
  tag=$1
  file=$2
  query=$3
  shift 3
  set +e
  "$CLI" answers "$file" --query "$query" --max-level 4 "$@" \
    > "$TMP/$tag.out" 2> "$TMP/$tag.err"
  echo $? > "$TMP/$tag.code"
  set -e
}

answers_ok=0
for spec in prog_eval:q prog_eval:who prog_fpt:who prog_cqs:q university:q prog_const:q; do
  prog=examples/programs/${spec%%:*}.gd
  query=${spec##*:}
  [ -f "$prog" ] || continue
  base="answers.${spec%%:*}.$query"
  run_answers "$base.seq" "$prog" "$query" --engine indexed
  for aspect in code out; do
    expect "$TMP/$base.seq.$aspect" "$base.$aspect" "$base: indexed $aspect"
  done
  if [ "$(cat "$TMP/$base.seq.code")" = 0 ]; then
    answers_ok=$((answers_ok + 1))
  fi
done
# The FPT route (Prop 3.3(3)): `answers --fpt` evaluates over the
# linearization's D* and Σ*, which the ground closure builds.
for spec in prog_fpt:who prog_eval:who prog_const:q; do
  prog=examples/programs/${spec%%:*}.gd
  query=${spec##*:}
  base="answers.${spec%%:*}.$query.fpt"
  run_answers "$base.seq" "$prog" "$query" --fpt
  for aspect in code out; do
    expect "$TMP/$base.seq.$aspect" "$base.$aspect" "$base: fpt $aspect"
  done
  if [ "$(cat "$TMP/$base.seq.code")" = 0 ]; then
    answers_ok=$((answers_ok + 1))
  fi
done
# Both routes read the constants of Σ the same way: on prog_const, whose
# rule r(c,X) -> s(X) names one, they list the same tuples.
cmp -s "$TMP/answers.prog_const.q.seq.out" "$TMP/answers.prog_const.q.fpt.seq.out" || {
  echo "determinism: answers and answers --fpt disagree on prog_const:q"
  exit 1
}
[ "$answers_ok" -ge 3 ] || {
  echo "determinism: only $answers_ok answer runs completed cleanly"
  exit 1
}
echo "determinism: OK ($answers_ok answer sets match goldens)"

# Incremental maintenance: `serve` applies a mutation log to a maintained
# store. Stdout, stats (up to the timing tail) and the checkpoint must
# match the goldens byte for byte.
# run_serve <tag> <program> <serve flags...> — serve examples/programs/
# <program>.gd over its <program>.mut log
run_serve() {
  tag=$1
  prog=examples/programs/$2
  shift 2
  set +e
  "$CLI" serve "$prog.gd" --log "$prog.mut" "$@" \
    --checkpoint "$TMP/$tag.ck" --stats "$TMP/$tag.stats" \
    > "$TMP/$tag.out" 2> "$TMP/$tag.err"
  echo $? > "$TMP/$tag.code"
  set -e
  if [ -f "$TMP/$tag.stats" ]; then
    sed -E 's/,"histograms":.*$//' "$TMP/$tag.stats" > "$TMP/$tag.cut"
  else
    : > "$TMP/$tag.cut"
  fi
  [ -f "$TMP/$tag.ck" ] || : > "$TMP/$tag.ck"
}

run_serve serve.seq university --engine indexed
[ "$(cat "$TMP/serve.seq.code")" = 0 ] || {
  echo "determinism: serve failed (exit $(cat "$TMP/serve.seq.code"))"
  exit 1
}
for aspect in code out ck cut; do
  expect "$TMP/serve.seq.$aspect" "serve.$aspect" "serve: indexed $aspect"
done
echo "determinism: OK (serve matches goldens)"

# Maintenance under churn: churn.mut deletes rows from the middle of
# 40-row posting lists and re-fires the rules through them, so a store
# whose removals reorder a posting fires triggers in a different order
# and hands out different null ids than the goldens record.
run_serve serve.churn.seq churn --engine indexed
[ "$(cat "$TMP/serve.churn.seq.code")" = 0 ] || {
  echo "determinism: churn serve failed (exit $(cat "$TMP/serve.churn.seq.code"))"
  exit 1
}
for aspect in code out ck cut; do
  expect "$TMP/serve.churn.seq.$aspect" "serve.churn.$aspect" "serve churn: indexed $aspect"
done
echo "determinism: OK (churn serve matches goldens)"

# A recovered store must pass the same golden sweep: crash the WAL-backed
# serve with an injected fsync fault (torn final record), recover, and
# compare the recovered checkpoint byte-for-byte against the serve golden
# plus the recovered fact listing against the golden's. Stdout is not
# compared whole — a recovered run does not re-print mutations the WAL
# already applied, by design.
rm -rf "$TMP/serve.wal"
set +e
"$CLI" serve examples/programs/university.gd \
  --log examples/programs/university.mut \
  --wal "$TMP/serve.wal" --checkpoint-every 2 \
  --fault-plan point:wal.fsync:3 \
  > "$TMP/serve.crash.out" 2> "$TMP/serve.crash.err"
code=$?
set -e
[ "$code" = 1 ] || {
  echo "determinism: injected serve crash expected exit 1, got $code"
  exit 1
}
run_serve serve.rec university --wal "$TMP/serve.wal" --recover
[ "$(cat "$TMP/serve.rec.code")" = 0 ] || {
  echo "determinism: serve recovery failed (exit $(cat "$TMP/serve.rec.code"))"
  exit 1
}
expect "$TMP/serve.rec.ck" serve.ck "serve: recovered checkpoint"
grep -v '^%' "$TMP/serve.rec.out" > "$TMP/serve.rec.facts"
grep -v '^%' "$GOLD/serve.out" > "$TMP/serve.golden.facts"
cmp -s "$TMP/serve.rec.facts" "$TMP/serve.golden.facts" || {
  echo "determinism: recovered serve fact listing drifted from golden"
  exit 1
}
echo "determinism: OK (recovered store matches the serve goldens)"

# Degradation-ladder determinism: the same fault plan and retry budget
# must reproduce the pinned ladder transcript — stdout, including the
# `%% ladder:` lines.
run_serve serve.ladder.seq university --engine indexed \
  --retries 2 --fault-plan point:incr.delete:1
[ "$(cat "$TMP/serve.ladder.seq.code")" = 0 ] || {
  echo "determinism: ladder serve failed (exit $(cat "$TMP/serve.ladder.seq.code"))"
  exit 1
}
grep -q "ladder:" "$TMP/serve.ladder.seq.out" || {
  echo "determinism: fault plan produced no ladder transcript"
  exit 1
}
for aspect in code out; do
  expect "$TMP/serve.ladder.seq.$aspect" "serve.ladder.$aspect" \
    "serve ladder: indexed $aspect"
done
echo "determinism: OK (ladder transcript matches golden)"

# Record the clean pass for the short-circuit above.
fingerprint > "$STAMP"
