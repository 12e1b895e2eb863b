#!/bin/sh
# Server load/soak: saturate one generated university store, then serve
# the same mixed request file under --workers 1 and --workers 4. The
# replies carry request ids and each line is canonical per-request
# bytes, so worker scheduling may permute the transcript but never
# change a line: the sorted transcripts must be byte-identical. The run
# must stay clean — every request answered, zero errors, zero
# quarantine, exit 0. The mixed file repeats its lines, so most replies
# come from the workers' reply caches; a second phase serves 8,000
# distinct lines, which only miss, and a third an overlong line.
#
# Each run also reports the worker domains' allocation (the summed
# Gc minor/major word deltas the daemon records per worker), and the
# run fails if minor allocation per served request regresses past the
# gate: multicore serving throughput is bounded by minor allocation
# (every domain's minor-GC barrier stops all domains), so words per
# request is the scaling signal worth pinning, and it is deterministic
# enough to gate on where qps on a shared CI box is not.
#
# Run from the repository root:  sh ci/server_load.sh
# Environment:
#   SERVER_LOAD_REQUESTS=200   request count (default 2000; ci/check.sh
#                              sets a small value as a smoke)
#   SERVER_LOAD_MAX_WORDS=3000 gate: max minor words per served request
set -eu

cd "$(dirname "$0")/.."

CLI=_build/default/bin/guarded_cli.exe
[ -x "$CLI" ] || { echo "server_load: build first (dune build)"; exit 1; }

N=${SERVER_LOAD_REQUESTS:-2000}
MAXW=${SERVER_LOAD_MAX_WORDS:-3000}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# A lubm-flavoured store, big enough that scans return hundreds of
# tuples: 4 departments x 12 professors x 30 students.
PROG="$TMP/load.gd"
{
  echo "prof(X) -> teaches(X,C)."
  echo "teaches(X,C) -> course(C)."
  echo "course(C) -> offeredby(C,D)."
  echo "offeredby(C,D) -> dept(D)."
  echo "teaches(X,C) -> faculty(X)."
  echo "student(S) -> takes(S,C)."
  echo "takes(S,C) -> course(C)."
  echo "student(S) -> advisedby(S,A)."
  echo "advisedby(S,A) -> faculty(A)."
  echo "memberof(X,D) -> dept(D)."
  d=0
  while [ "$d" -lt 4 ]; do
    p=0
    while [ "$p" -lt 12 ]; do
      echo "prof(prof_${d}_${p})."
      echo "memberof(prof_${d}_${p},dept_${d})."
      echo "teaches(prof_${d}_${p},course_${d}_${p})."
      p=$((p + 1))
    done
    s=0
    while [ "$s" -lt 30 ]; do
      echo "student(stud_${d}_${s})."
      echo "takes(stud_${d}_${s},course_${d}_0)."
      s=$((s + 1))
    done
    d=$((d + 1))
  done
} > "$PROG"

# The mixed request file: point scans, counts, a union, joins — cycled in
# a fixed order, with comment noise that must get no reply.
REQ="$TMP/requests.txt"
i=0
while [ "$i" -lt "$N" ]; do
  case $((i % 8)) in
    0) echo "answers q(X) :- prof(X)." ;;
    1) echo "count q(X) :- faculty(X)." ;;
    2) echo "answers q(X,C) :- teaches(X,C)." ;;
    3) echo "count q(S) :- student(S). q(S) :- prof(S)." ;;
    4) echo "answers q(S,C) :- takes(S,C), course(C)." ;;
    5) echo "count q(D) :- dept(D)." ;;
    6) echo "answers q(P,D) :- prof(P), memberof(P,D)." ;;
    7) echo "% soak noise: comments get no reply" ;;
  esac
  i=$((i + 1))
done > "$REQ"

# serve TAG WORKERS REQUESTS: serve the request file at WORKERS, check
# the run is clean and answers every request, keep the sorted replies in
# $TMP/TAG-wWORKERS.sorted and the reply-cache hits in $hits, and gate
# minor words per served request.
serve() {
  tag=$1 workers=$2 req=$3
  out="$TMP/$tag-w$workers"
  expected=$(grep -cv '^%' "$req")
  "$CLI" server "$PROG" --workers "$workers" --stats "$out.stats.json" \
    < "$req" > "$out.out" 2> "$out.err" || {
    echo "server_load: $tag --workers $workers exited $? ($(cat "$out.err"))"
    exit 1
  }
  grep -q "(.* ok, .* partial, 0 error(s), 0 quarantined)" "$out.out" || {
    echo "server_load: $tag --workers $workers summary reports errors or quarantine"
    tail -1 "$out.out"
    exit 1
  }
  grep -v '^%' "$out.out" > "$out.replies"
  got=$(wc -l < "$out.replies")
  [ "$got" -eq "$expected" ] || {
    echo "server_load: $tag --workers $workers answered $got of $expected requests"
    exit 1
  }
  sort "$out.replies" > "$out.sorted"
  # allocation accounting: summed worker-domain Gc deltas from the
  # stats report, gated per served request
  minor=$(grep -o '"server.minor_words":[0-9]*' "$out.stats.json" \
    | head -1 | cut -d: -f2)
  major=$(grep -o '"server.major_words":[0-9]*' "$out.stats.json" \
    | head -1 | cut -d: -f2)
  hits=$(grep -o '"server.reply_hits":[0-9]*' "$out.stats.json" \
    | head -1 | cut -d: -f2)
  [ -n "$minor" ] && [ -n "$hits" ] || {
    echo "server_load: $tag --workers $workers stats report lacks server.minor_words or server.reply_hits"
    exit 1
  }
  per=$((minor / expected))
  echo "server_load: $tag workers $workers: $minor minor words, $major major words ($per minor words/request), $hits reply-cache hits"
  [ "$per" -le "$MAXW" ] || {
    echo "server_load: $tag --workers $workers allocates $per minor words/request (gate: $MAXW)"
    exit 1
  }
}

same_sorted() {
  cmp -s "$TMP/$1-w1.sorted" "$TMP/$1-w4.sorted" || {
    echo "server_load: $1: sorted transcripts differ between --workers 1 and 4"
    diff "$TMP/$1-w1.sorted" "$TMP/$1-w4.sorted" | head -20
    exit 1
  }
}

serve mixed 1 "$REQ"
serve mixed 4 "$REQ"
same_sorted mixed

# Distinct lines: every line is a point lookup no earlier line repeats
# (its variable is renamed per line), so no reply cache can answer it.
# This runs the miss path, and the lines' cache entries add up to more
# than a worker's 512 KiB ring, so the ring evicts. The sorted
# transcripts at workers 1 and 4 must be equal, workers 1 must report no
# reply-cache hit, and minor words per request stay under the same gate.
DISTINCT="$TMP/distinct.txt"
i=0
while [ "$i" -lt 8000 ]; do
  echo "answers q(C$i) :- takes(stud_$((i % 4))_$((i / 4 % 30)),C$i), course(C$i)."
  i=$((i + 1))
done > "$DISTINCT"
serve distinct 1 "$DISTINCT"
[ "$hits" -eq 0 ] || {
  echo "server_load: distinct lines: --workers 1 reports $hits reply-cache hits, want 0"
  exit 1
}
serve distinct 4 "$DISTINCT"
same_sorted distinct

# An overlong request line: 3 MiB with no newline until its end, over
# the server's 1 MiB line cap, then a request and a final unterminated
# line. The long line gets exactly one error reply and is not buffered;
# the later lines keep their ids, at workers 1 and 4 alike. A served
# error reply makes the server exit 1, so that is the status expected.
LONG="$TMP/overlong.txt"
{
  head -c 3145728 /dev/zero | tr '\0' x
  echo
  echo "count q(D) :- dept(D)."
  printf '%s' "count q(X) :- prof(X)."
} > "$LONG"
for workers in 1 4; do
  status=0
  "$CLI" server "$PROG" --workers "$workers" < "$LONG" \
    > "$TMP/long$workers.out" 2> "$TMP/long$workers.err" || status=$?
  [ "$status" -eq 1 ] || {
    echo "server_load: overlong line: --workers $workers exited $status, want 1 ($(cat "$TMP/long$workers.err"))"
    exit 1
  }
  grep -v '^%' "$TMP/long$workers.out" | sort > "$TMP/long$workers.sorted"
done
printf '%s\n' "1 error request line longer than 1048576 bytes" "2 ok count=4" \
  "3 ok count=48" > "$TMP/long.expected"
for workers in 1 4; do
  cmp -s "$TMP/long.expected" "$TMP/long$workers.sorted" || {
    echo "server_load: overlong line: unexpected replies at --workers $workers"
    diff "$TMP/long.expected" "$TMP/long$workers.sorted" | head -20
    exit 1
  }
done

echo "server_load: OK ($(grep -cv '^%' "$REQ") mixed and 8000 distinct requests, workers 1 vs 4 byte-identical sorted transcripts; overlong line refused once)"
