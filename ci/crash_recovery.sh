#!/bin/sh
# Crash-recovery harness for the WAL-backed `serve` runtime: a maintained
# store killed with SIGKILL at an arbitrary point — mid-mutation,
# mid-append, mid-fsync, mid-rotation — and restarted with `--recover`
# must converge to the *byte-identical* final checkpoint and fact listing
# of a run that was never interrupted. The loop below kills the server 25
# times at varying points of a churn log, recovering each time; a torn
# final record (simulated twice: once with an injected fsync fault, once
# by dd-truncating the newest segment of a completed run) must be
# truncated and replayed from the mutation log, never reported as
# corruption. A truncated only image, by contrast, must fail with a
# diagnostic naming the file.
#
# Run from the repository root:  sh ci/crash_recovery.sh
# Environment:
#   CRASH_RECOVERY_KILLS=N   number of SIGKILL iterations (default 25)
set -eu

cd "$(dirname "$0")/.."

CLI=_build/default/bin/guarded_cli.exe
[ -x "$CLI" ] || { echo "crash_recovery: build first (dune build)"; exit 1; }

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

PROG=examples/programs/university.gd
LOG=$TMP/churn.mut
KILLS=${CRASH_RECOVERY_KILLS:-25}

# A churn log over the university schema: a cohort of professors and
# course assignments arrives, a third of the professors leave again (their
# derived subtrees must be retracted), some deletions are no-ops. 1114
# mutations — enough that a fsync-per-record run takes most of a second,
# so the kill window below lands mid-run — and deliberately not a
# multiple of the rotation interval, so the final segment always holds a
# tail to tear.
awk 'BEGIN {
  for (i = 0; i < 400; i++) {
    printf "+prof(p%d).\n", i
    printf "+teaches(p%d,c%d).\n", i, i % 7
    if (i % 3 == 0) printf "-prof(p%d).\n", i
    if (i % 4 == 0) printf "-teaches(p%d,c%d).\n", i, i % 7
    if (i % 5 == 0) printf "-prof(ghost%d).\n", i
  }
}' > "$LOG"

serve() {
  # serve <out> <args...> — exit code on stdout, never aborts the script
  out=$1
  shift
  set +e
  "$CLI" serve "$PROG" --log "$LOG" "$@" > "$out" 2> "$out.err"
  code=$?
  set -e
  echo "$code"
}

facts() { grep -v '^%' "$1" > "$2"; }

# ---- the uninterrupted reference ----------------------------------------

code=$(serve "$TMP/ref.out" --checkpoint "$TMP/ref.ck")
[ "$code" = 0 ] || { echo "crash_recovery: reference run failed ($code)"; exit 1; }
facts "$TMP/ref.out" "$TMP/ref.facts"

# ---- kill loop -----------------------------------------------------------

# Kill the server at a pseudo-random point (seeded by the iteration, so
# reruns of the harness explore the same schedule) and recover. Iteration
# one starts from an empty WAL; every later one replays whatever the
# previous kill left behind. Runs that finish before the kill lands are
# fine — recovery of a complete WAL is a no-op replay.
rm -rf "$TMP/wal"
i=0
completed=0
while [ "$i" -lt "$KILLS" ]; do
  i=$((i + 1))
  delay=$(awk -v s="$i" 'BEGIN { srand(s); printf "%.3f", 0.005 + rand() * 0.08 }')
  set +e
  {
    "$CLI" serve "$PROG" --log "$LOG" --wal "$TMP/wal" --recover \
      --checkpoint-every 10 --checkpoint "$TMP/kill.ck" \
      > "$TMP/kill.out" 2> "$TMP/kill.err" &
    pid=$!
    sleep "$delay"
    kill -9 "$pid" 2>/dev/null
    wait "$pid"
    code=$?
  } 2> /dev/null # the group redirect swallows the shell's "Killed" notice
  set -e
  [ "$code" = 0 ] && completed=$((completed + 1))
done
echo "crash_recovery: $KILLS kills delivered ($completed run(s) finished early)"

# The final recovery must complete and agree with the reference on every
# observable: checkpoint bytes and the fact listing.
code=$(serve "$TMP/final.out" --wal "$TMP/wal" --recover \
  --checkpoint-every 10 --checkpoint "$TMP/final.ck")
[ "$code" = 0 ] || {
  echo "crash_recovery: final recovery failed ($code)"
  cat "$TMP/final.out.err"
  exit 1
}
facts "$TMP/final.out" "$TMP/final.facts"
cmp -s "$TMP/ref.ck" "$TMP/final.ck" || {
  echo "crash_recovery: recovered checkpoint diverges from uninterrupted run"
  exit 1
}
cmp -s "$TMP/ref.facts" "$TMP/final.facts" || {
  echo "crash_recovery: recovered fact listing diverges from uninterrupted run"
  diff "$TMP/ref.facts" "$TMP/final.facts" | head
  exit 1
}
echo "crash_recovery: kill loop converged (checkpoint and facts byte-identical)"

# ---- injected torn write -------------------------------------------------

# Crash exactly inside the two-phase append — the record body is flushed
# but the newline/fsync never happens. Recovery must truncate exactly one
# record and land on the reference bytes.
rm -rf "$TMP/wal2"
code=$(serve "$TMP/torn.out" --wal "$TMP/wal2" --checkpoint-every 10 \
  --fault-plan point:wal.fsync:3)
[ "$code" = 1 ] || { echo "crash_recovery: injected crash expected exit 1, got $code"; exit 1; }
code=$(serve "$TMP/torn.rec.out" --wal "$TMP/wal2" --recover \
  --checkpoint-every 10 --checkpoint "$TMP/torn.ck")
[ "$code" = 0 ] || { echo "crash_recovery: torn-write recovery failed ($code)"; exit 1; }
grep -q "1 truncated" "$TMP/torn.rec.out" || {
  echo "crash_recovery: torn record not reported as truncated"
  grep "recover:" "$TMP/torn.rec.out" || true
  exit 1
}
facts "$TMP/torn.rec.out" "$TMP/torn.facts"
cmp -s "$TMP/ref.ck" "$TMP/torn.ck" || {
  echo "crash_recovery: torn-write recovery checkpoint diverges"
  exit 1
}
cmp -s "$TMP/ref.facts" "$TMP/torn.facts" || {
  echo "crash_recovery: torn-write recovery fact listing diverges"
  exit 1
}
echo "crash_recovery: injected torn write truncated and replayed"

# ---- dd-truncated tail ---------------------------------------------------

# Tear the newest segment of a *completed* WAL mid-record with dd: the
# torn mutation is truncated from the WAL, then re-applied from the
# mutation log during the recovered run — same final bytes.
rm -rf "$TMP/wal3"
code=$(serve "$TMP/full.out" --wal "$TMP/wal3" --checkpoint-every 10 \
  --checkpoint "$TMP/full.ck")
[ "$code" = 0 ] || { echo "crash_recovery: clean WAL run failed ($code)"; exit 1; }
seg=$(ls "$TMP/wal3"/wal-*.log | sort -t- -k2 -n | tail -1)
size=$(wc -c < "$seg")
[ "$size" -gt 16 ] || { echo "crash_recovery: final segment unexpectedly small"; exit 1; }
dd if="$seg" of="$seg.cut" bs=1 count=$((size - 9)) 2>/dev/null
mv "$seg.cut" "$seg"
code=$(serve "$TMP/dd.rec.out" --wal "$TMP/wal3" --recover \
  --checkpoint-every 10 --checkpoint "$TMP/dd.ck")
[ "$code" = 0 ] || { echo "crash_recovery: dd-torn recovery failed ($code)"; exit 1; }
grep -q "1 truncated" "$TMP/dd.rec.out" || {
  echo "crash_recovery: dd-torn record not reported as truncated"
  exit 1
}
facts "$TMP/dd.rec.out" "$TMP/dd.facts"
cmp -s "$TMP/ref.ck" "$TMP/dd.ck" || {
  echo "crash_recovery: dd-torn recovery checkpoint diverges"
  exit 1
}
cmp -s "$TMP/ref.facts" "$TMP/dd.facts" || {
  echo "crash_recovery: dd-torn recovery fact listing diverges"
  exit 1
}
echo "crash_recovery: dd-truncated tail truncated and replayed"

# ---- corrupt only image --------------------------------------------------

# Truncate the only image of a completed WAL. Nothing is left to fall back
# to, so recovery must fail as a runtime fault (exit 1) with a one-line
# "error: wal:" diagnostic that names the file.
rm -rf "$TMP/wal4"
code=$(serve "$TMP/img.out" --wal "$TMP/wal4" --checkpoint-every 10)
[ "$code" = 0 ] || { echo "crash_recovery: clean WAL run failed ($code)"; exit 1; }
img=$(ls "$TMP/wal4"/image-*.json)
[ "$(echo "$img" | wc -l)" = 1 ] || { echo "crash_recovery: expected one image"; exit 1; }
dd if="$img" of="$img.cut" bs=1 count=100 2>/dev/null
mv "$img.cut" "$img"
code=$(serve "$TMP/img.rec.out" --wal "$TMP/wal4" --recover)
[ "$code" = 1 ] || { echo "crash_recovery: corrupt image expected exit 1, got $code"; exit 1; }
[ "$(wc -l < "$TMP/img.rec.out.err")" = 1 ] \
  && grep -q "^error: wal: .*$img" "$TMP/img.rec.out.err" || {
  echo "crash_recovery: corrupt image diagnostic is not one 'error: wal:' line naming $img"
  cat "$TMP/img.rec.out.err"
  exit 1
}
echo "crash_recovery: corrupt only image reported as a fault naming the file"

echo "crash_recovery: OK"
