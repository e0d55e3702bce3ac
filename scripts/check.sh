#!/usr/bin/env bash
# Build, test and regenerate every paper figure in one shot.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
# Every bench exits nonzero on its own failed gate. suite_scaling's
# growth phase is the memory gate: RSS after 300 suite passes in one
# process must stay within 10% of RSS after 5.
for b in build/bench/*; do "$b"; done

# Cross-thread checks under ThreadSanitizer: a separate build dir so
# instrumented objects never mix with the main build. An analysis runs on
# one thread, so what is left to check is evaluateSuite's slot loop (its
# Threads=1-vs-Threads=4 determinism contract, faulty benchmarks on 4
# threads and on one thread per benchmark, and the supervisor's retry
# path on 4), predictord's request workers sharing one Service (its
# response memo and persistent cache), and that no arena is written by
# two threads: concurrent readers of one finished result, and two
# incremental runs from one base at once.
cmake -B build-tsan -G Ninja -DVRP_SANITIZE=thread
cmake --build build-tsan --target ParallelDeterminismTest \
  FaultToleranceTest SupervisorRetryTest ServerTest RangeArenaTest
ctest --test-dir build-tsan --output-on-failure \
  -R 'ParallelDeterminism|FaultToleranceTest\.(KOfN|.*Thread)|SupervisorRetryTest\..*FourWorkers|ServerTest|RangeArenaTest\.(ConcurrentReaders|IncrementalRunsFromOneBaseOnTwoThreads)'

# Robustness checks under AddressSanitizer+UBSan: the hostile-input
# corpus, the fault-injection suite, the structured-error paths, the
# soundness sentinel + torn-store rerun, where memory bugs would hide
# behind the recovery code, incremental rebinding, where a symbolic
# bound left pointing into the previous module would be a use after free,
# and the per-analysis range arenas, where a handle outliving its arena
# would read freed storage.
cmake -B build-asan -G Ninja -DVRP_SANITIZE=address
cmake --build build-asan --target MalformedCorpusTest FaultToleranceTest \
  SupportTest AuditTest QuarantineResumeTest SccSchedulerTest \
  RangeArenaTest predictor_tool
ctest --test-dir build-asan --output-on-failure \
  -R 'MalformedCorpus|FaultTolerance|Status|FaultInjection|Audit|QuarantineResume|SccScheduler|RangeArena'

# Soundness audit under ASan: the full benchmark suite replayed against
# the computed ranges must produce ZERO violations (exit 0). Any nonzero
# exit here is a live soundness bug in range arithmetic or derivation.
build-asan/examples/predictor_tool --suite --audit >/dev/null
echo "soundness audit: ok"

# Sentinel end-to-end: a silently corrupted range must be caught,
# quarantined and reported via exit code 4 — not 0 (missed) and not a
# crash.
if VRP_FAULT_INJECT='unsound-range@sort:0' \
     build-asan/examples/predictor_tool --suite --audit >/dev/null 2>&1; then
  echo "sentinel smoke: injected unsound range was NOT detected" >&2
  exit 1
else
  rc=$?
  if [ "$rc" -ne 4 ]; then
    echo "sentinel smoke: expected exit 4, got $rc" >&2
    exit 1
  fi
fi
echo "sentinel smoke: ok"

# Range-arithmetic oracles under UBSan alone: the exhaustive integer
# div/rem/mul containment sweep deliberately walks the
# Int64Min/Int64Max boundary, and the FP interval oracle walks
# NaN/±∞/±0.0/subnormal endpoints — exactly where undefined behavior
# in the kernels would hide.
cmake -B build-ubsan -G Ninja -DVRP_SANITIZE=undefined
cmake --build build-ubsan --target RangeOpsOracleTest FPIntervalOracleTest
ctest --test-dir build-ubsan --output-on-failure -R 'Oracle'

# FP/alias stage (docs/DOMAINS.md): the alias determinism suite pins
# bitwise-identical curves at 1/2/4 threads and across a cold-vs-warm
# pcache cycle with the FP domain and load aliasing on; the fp_alias
# bench then re-checks the same identities end to end over the full
# suite (it exits nonzero itself if any gate fails) and its JSON gate
# fields are verified here against accidental report-only regressions.
ctest --test-dir build --output-on-failure -R 'AliasDeterminism'
build/bench/fp_alias
for gate in threads_identical cache_identical; do
  if ! grep -q "\"$gate\": true" BENCH_fp_alias.json; then
    echo "fp-alias stage: $gate is not true in BENCH_fp_alias.json" >&2
    exit 1
  fi
done
fp_predicted=$(grep -o '"fp_branches_range_predicted": [0-9]*' \
  BENCH_fp_alias.json | grep -o '[0-9]*$')
if [ "${fp_predicted:-0}" -eq 0 ]; then
  echo "fp-alias stage: no FP-tested branch received a range prediction" >&2
  exit 1
fi
echo "fp-alias stage: ok ($fp_predicted fp-tested branches range-predicted)"

# Stats determinism: the non-timing half of --stats=json must be bitwise
# identical at 1 and 4 threads ("timings" is the trailing key, so
# everything from its line onward is stripped before comparing).
build/examples/predictor_tool --suite --stats=json --threads=1 \
  | sed '/"timings"/,$d' > build/stats-t1.json
build/examples/predictor_tool --suite --stats=json --threads=4 \
  | sed '/"timings"/,$d' > build/stats-t4.json
diff build/stats-t1.json build/stats-t4.json
echo "stats determinism: ok"

# Module-scale smoke: on a small generated module (depth-bounded so the
# refinement converges inside the per-function budget), re-analyzing
# incrementally after mutating 3 functions must (1) visit only the
# invalidated cone — at least the mutated functions, strictly fewer than
# the module — and (2) reproduce the cold analysis fingerprint bitwise.
ms_args="--module-scale=300 --module-layers=3 --module-seed=11 --mutate=3"
build/examples/predictor_tool $ms_args > build/module-cold.json
build/examples/predictor_tool $ms_args --incremental > build/module-inc.json
ms_field() { grep -o "\"$2\": [0-9a-fx\"]*" "$1" | head -n1 | sed 's/.*: //; s/"//g'; }
cold_fp=$(ms_field build/module-cold.json fingerprint)
inc_fp=$(ms_field build/module-inc.json fingerprint)
cone=$(ms_field build/module-inc.json functions_reanalyzed)
nfns=$(ms_field build/module-inc.json functions)
if [ "$cold_fp" != "$inc_fp" ]; then
  echo "module-scale smoke: incremental fingerprint $inc_fp != cold $cold_fp" >&2
  exit 1
fi
if [ "${cone:-0}" -lt 3 ] || [ "$cone" -ge "$nfns" ]; then
  echo "module-scale smoke: cone $cone out of range [3, $nfns)" >&2
  exit 1
fi
echo "module-scale smoke: ok (cone $cone of $nfns, fingerprint $inc_fp)"

# Fault-injection smoke: an injected parse fault must surface as exit
# code 1 with a rendered diagnostic, not a crash.
if VRP_FAULT_INJECT=parse:0 build/examples/predictor_tool \
     examples/vl/histogram.vl >/dev/null 2>&1; then
  echo "fault-injection smoke: expected exit 1, got 0" >&2
  exit 1
else
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "fault-injection smoke: expected exit 1, got $rc" >&2
    exit 1
  fi
fi
echo "fault-injection smoke: ok"

# Torn-store rerun, under ASan+UBSan: a killed --suite run is finished by
# rerunning it with the same --cache. Fill a store, cut it in half (a
# killed writer leaves a torn tail), rerun, and require the stats to be
# bitwise identical to an uncached run. Comparison stops at the "pcache"
# key: everything above it is the deterministic contract. The rerun must
# drop the torn record (corrupt_records = 1), reuse the committed prefix
# (hits > 0) and recompute the rest (misses > 0).
rm -f build/torn.pcache
build-asan/examples/predictor_tool --suite --stats=json \
  --cache=build/torn.pcache > /dev/null
truncate -s $(( $(stat -c %s build/torn.pcache) / 2 )) build/torn.pcache
build-asan/examples/predictor_tool --suite --stats=json \
  > build/stats-uncached.json
build-asan/examples/predictor_tool --suite --stats=json \
  --cache=build/torn.pcache > build/stats-rerun.json
diff <(sed '/"pcache"/,$d' build/stats-uncached.json) \
     <(sed '/"pcache"/,$d' build/stats-rerun.json)
pcache_field() { # stats file, key -> value from its "pcache" block
  grep -o '"pcache": {[^}]*}' "$1" | grep -o "\"$2\": [0-9]*" \
    | grep -o '[0-9]*$'
}
torn_corrupt=$(pcache_field build/stats-rerun.json corrupt_records)
torn_hits=$(pcache_field build/stats-rerun.json hits)
torn_misses=$(pcache_field build/stats-rerun.json misses)
if [ "${torn_corrupt:-0}" -ne 1 ] || [ "${torn_hits:-0}" -eq 0 ] ||
   [ "${torn_misses:-0}" -eq 0 ]; then
  echo "torn-store rerun: expected corrupt_records=1, hits>0, misses>0;" \
    "got $torn_corrupt, $torn_hits, $torn_misses" >&2
  exit 1
fi
echo "torn-store rerun: ok (hits $torn_hits, misses $torn_misses)"

# Warm-start: a second --cache run must restore every analysis from disk
# (pcache_hits > 0, zero misses) and reproduce the cold run's stats
# bitwise. Comparison stops at the "pcache" key: everything above it is
# the deterministic contract; the pcache counters themselves legitimately
# flip from all-miss to all-hit between the two runs. A third run under
# --cache-verify re-analyzes every hit and must find zero divergence
# (exit 5 otherwise).
rm -f build/pcache.bin
build/examples/predictor_tool --suite --stats=json --cache=build/pcache.bin \
  > build/stats-cold.json
build/examples/predictor_tool --suite --stats=json --cache=build/pcache.bin \
  > build/stats-warm.json
diff <(sed '/"pcache"/,$d' build/stats-cold.json) \
     <(sed '/"pcache"/,$d' build/stats-warm.json)
warm_hits=$(pcache_field build/stats-warm.json hits)
warm_misses=$(pcache_field build/stats-warm.json misses)
if [ "${warm_hits:-0}" -eq 0 ] || [ "${warm_misses:-1}" -ne 0 ]; then
  echo "warm-start: expected hits>0 and misses=0, got hits=$warm_hits misses=$warm_misses" >&2
  exit 1
fi
build/examples/predictor_tool --suite --cache=build/pcache.bin \
  --cache-verify >/dev/null
# Two programs that differ only in a float constant that prints alike in
# both (0.000005): the key hashes constants by bit pattern, so the second
# must miss a store filled by the first, and verify must find nothing
# stale.
float_program() { # threshold -> VL source
  cat <<VL
fn main() {
  var hits = 0;
  for (var i = 0; i < 100; i = i + 1) {
    var x = float(i) * 0.0000001;
    if (x < $1) {
      hits = hits + 1;
    }
  }
  return hits;
}
VL
}
float_program 0.0000051 > build/float-a.vl
float_program 0.0000054 > build/float-b.vl
rm -f build/float.pcache
build/examples/predictor_tool build/float-a.vl --cache=build/float.pcache \
  > /dev/null
float_misses=$(build/examples/predictor_tool build/float-b.vl \
  --cache=build/float.pcache --stats | sed -n 's/^pcache_misses //p')
if [ "${float_misses:-0}" -ne 1 ]; then
  echo "warm-start: float constant that prints alike must miss, got pcache_misses=$float_misses" >&2
  exit 1
fi
rm -f build/float.pcache
build/examples/predictor_tool build/float-a.vl --cache=build/float.pcache \
  > /dev/null
build/examples/predictor_tool build/float-b.vl --cache=build/float.pcache \
  --cache-verify > /dev/null
echo "warm-start: ok"

# Serving smoke: the resident daemon must (1) answer byte-identically to
# the one-shot tool, (2) survive kill -9 under load — the stale socket is
# reclaimed, the persistent cache replays its committed prefix, and the
# restarted daemon still answers byte-identically, (3) drain cleanly on
# SIGTERM (exit 0, socket file unlinked), and (4) leave a cache the
# one-shot tool verifies divergence-free.
SOCK=build/predictord.sock
PCACHE=build/predictord.pcache
rm -f "$SOCK" "$PCACHE"
wait_for_socket() { # path present(1)/absent(0)
  for _ in $(seq 1 100); do
    if [ -S "$1" ]; then [ "$2" -eq 1 ] && return 0
    else [ "$2" -eq 0 ] && return 0; fi
    sleep 0.1
  done
  echo "serving smoke: timed out waiting on $1 (present=$2)" >&2
  return 1
}
build/examples/predictord --socket="$SOCK" --cache="$PCACHE" --threads=2 \
  2>/dev/null &
SRV=$!
wait_for_socket "$SOCK" 1
build/examples/predictor_tool examples/vl/histogram.vl > build/serve-oneshot.txt
build/examples/predictord --socket="$SOCK" --send=examples/vl/histogram.vl \
  > build/serve-served.txt
diff build/serve-oneshot.txt build/serve-served.txt
# Load the daemon, then kill -9 it mid-flight.
( for _ in 1 2 3 4 5 6 7 8; do
    build/examples/predictord --socket="$SOCK" \
      --send=examples/vl/triangle.vl >/dev/null 2>&1 || true
  done ) &
LOAD=$!
sleep 0.3
kill -9 "$SRV" 2>/dev/null || true
wait "$SRV" 2>/dev/null || true
wait "$LOAD" 2>/dev/null || true
[ -S "$SOCK" ] || { echo "serving smoke: kill -9 should leave the socket file" >&2; exit 1; }
# Restart over the stale socket and the torn cache: both must recover.
build/examples/predictord --socket="$SOCK" --cache="$PCACHE" --threads=2 \
  2>/dev/null &
SRV=$!
wait_for_socket "$SOCK" 1
build/examples/predictord --socket="$SOCK" --send=examples/vl/histogram.vl \
  > build/serve-restarted.txt
diff build/serve-oneshot.txt build/serve-restarted.txt
# Graceful drain: SIGTERM exits 0 and removes the socket file.
kill -TERM "$SRV"
if ! wait "$SRV"; then
  echo "serving smoke: SIGTERM drain must exit 0" >&2
  exit 1
fi
wait_for_socket "$SOCK" 0
# The daemon-written cache must verify clean against fresh re-analysis.
build/examples/predictor_tool --cache="$PCACHE" --cache-verify \
  examples/vl/histogram.vl >/dev/null
echo "serving smoke: ok"

# Fleet chaos smoke: the supervised multi-worker fleet must (1) answer
# byte-identically to the one-shot tool through the router, (2) survive
# kill -9 of a worker under load with ZERO client-visible failures (the
# router retries in-flight requests once on a healthy shard) and restart
# the shard, (3) detect a SIGSTOPped worker via missed heartbeats, open
# its circuit breaker (visible in the stats "serving" block) and replace
# it, (4) mark a crash-looping worker Dead once its restart budget is
# spent while the survivors keep answering, and (5) drain the whole
# fleet on shutdown with exit 0 and every socket file unlinked.
FSOCK=build/fleet.sock
FCACHE=build/fleet.pcache
rm -f "$FSOCK" "$FSOCK".w* "$FCACHE".w*
build/examples/predictord --socket="$FSOCK" --cache="$FCACHE" --workers=3 \
  --backoff-ms=100 --heartbeat-ms=200 --forward-timeout=1000 2>/dev/null &
FLT=$!
wait_for_socket "$FSOCK" 1
fleet_stats() { build/examples/predictord --socket="$FSOCK" --stats; }
fleet_counter() { # name -> value from the "serving" block
  fleet_stats | grep -o "\"$1\":[0-9][0-9]*" | head -n1 | grep -o '[0-9]*$'
}
wait_fleet() { # condition-command, retried for 15s
  for _ in $(seq 1 150); do
    if "$@"; then return 0; fi
    sleep 0.1
  done
  echo "fleet chaos smoke: timed out waiting for: $*" >&2
  return 1
}
all_up() { [ "$(fleet_stats | grep -o '"state":"up"' | wc -l)" -eq 3 ]; }
wait_fleet all_up
# (1) Identity through the router, against the one-shot tool.
build/examples/predictor_tool examples/vl/histogram.vl > build/fleet-oneshot.txt
build/examples/predictord --socket="$FSOCK" --send=examples/vl/histogram.vl \
  > build/fleet-served.txt
diff build/fleet-oneshot.txt build/fleet-served.txt
# (2) kill -9 one worker mid-load: every request must still succeed.
VICTIM=$(fleet_stats | grep -o '"index":0,"pid":[0-9]*' | grep -o '[0-9]*$')
rm -f build/fleet-load-failed
( for _ in $(seq 1 24); do
    build/examples/predictord --socket="$FSOCK" \
      --send=examples/vl/triangle.vl >/dev/null 2>&1 \
      || touch build/fleet-load-failed
  done ) &
FLOAD=$!
sleep 0.2
kill -9 "$VICTIM" 2>/dev/null || true
wait "$FLOAD"
if [ -e build/fleet-load-failed ]; then
  echo "fleet chaos smoke: kill -9 caused a client-visible failure" >&2
  exit 1
fi
restarted() { [ "$(fleet_counter worker_restarts)" -ge 1 ]; }
wait_fleet restarted
wait_fleet all_up
# (3) SIGSTOP a worker: heartbeats miss, the breaker opens, the
# supervisor replaces it — again with zero client-visible failures.
VICTIM=$(fleet_stats | grep -o '"index":1,"pid":[0-9]*' | grep -o '[0-9]*$')
kill -STOP "$VICTIM" 2>/dev/null || true
rm -f build/fleet-load-failed
( for _ in $(seq 1 12); do
    build/examples/predictord --socket="$FSOCK" \
      --send=examples/vl/histogram.vl >/dev/null 2>&1 \
      || touch build/fleet-load-failed
  done ) &
FLOAD=$!
breaker_opened() { [ "$(fleet_counter breaker_open)" -ge 1 ]; }
wait_fleet breaker_opened
wait "$FLOAD"
if [ -e build/fleet-load-failed ]; then
  echo "fleet chaos smoke: stopped worker caused a client-visible failure" >&2
  exit 1
fi
wait_fleet all_up
# (5a) Graceful fleet drain: shutdown exits 0, all sockets unlinked.
build/examples/predictord --socket="$FSOCK" --shutdown >/dev/null
if ! wait "$FLT"; then
  echo "fleet chaos smoke: fleet drain must exit 0" >&2
  exit 1
fi
wait_for_socket "$FSOCK" 0
for W in 0 1 2; do
  if [ -e "$FSOCK.w$W" ]; then
    echo "fleet chaos smoke: drain left worker socket $FSOCK.w$W" >&2
    exit 1
  fi
done
# (4) Crash loop: a locker daemon holds worker 0's pcache shard flock,
# so every respawn of worker 0 dies at startup (exit 6). The budget
# expires, worker 0 is marked dead, and the survivors still answer.
CLCACHE=build/fleet-cl.pcache
rm -f build/locker.sock "$CLCACHE".w* build/fleet-cl.sock*
build/examples/predictord --socket=build/locker.sock --cache="$CLCACHE.w0" \
  --threads=1 2>/dev/null &
LOCKER=$!
wait_for_socket build/locker.sock 1
build/examples/predictord --socket=build/fleet-cl.sock --cache="$CLCACHE" \
  --workers=2 --restart-budget=2 --backoff-ms=50 --heartbeat-ms=200 \
  2>/dev/null &
CLFLT=$!
wait_for_socket build/fleet-cl.sock 1
FSOCK=build/fleet-cl.sock # fleet_stats/wait_fleet now watch this fleet
worker0_dead() { fleet_stats | grep -q '"index":0,[^{]*"state":"dead"'; }
wait_fleet worker0_dead
build/examples/predictord --socket=build/fleet-cl.sock \
  --send=examples/vl/histogram.vl > build/fleet-cl-served.txt
diff build/fleet-oneshot.txt build/fleet-cl-served.txt
build/examples/predictord --socket=build/fleet-cl.sock --shutdown >/dev/null
if ! wait "$CLFLT"; then
  echo "fleet chaos smoke: degraded fleet drain must exit 0" >&2
  exit 1
fi
kill -TERM "$LOCKER" 2>/dev/null || true
wait "$LOCKER" 2>/dev/null || true
echo "fleet chaos smoke: ok"

# Perf smoke: median kernel times from bench/micro_ranges must stay
# within a +25% geomean of the committed BENCH_micro_ranges.json
# baseline. Geomean (not per-benchmark) so one noisy entry cannot flake
# the gate; regenerate the baseline with `scripts/perf_smoke.py --update`
# after an intentional kernel change.
python3 scripts/perf_smoke.py
echo "perf smoke: ok"

# Benchmark smoke: build vrpbench against the current src/ and run every
# workload untraced and traced on tiny inputs, so a library change that
# breaks the benchmark harness (a renamed entry point, a dropped counter
# it reads) fails here rather than in the benchmark pipeline.
python3 vrpbench/run.py --smoke
echo "vrpbench smoke: ok"

# Docs lint, part 1: every relative link in README.md and docs/*.md must
# resolve to a file in the repo. Absolute URLs and #anchors are out of
# scope.
doc_links() { # doc -> its relative link targets, one per line
  grep -o '\]([^)]*)' "$1" | sed 's/^](//; s/)$//' \
    | grep -v '^https\?://\|^mailto:\|^#' | sed 's/#.*//' | grep -v '^$' || true
}
docs_lint_failed=0
for doc in README.md docs/*.md; do
  dir=$(dirname "$doc")
  while IFS= read -r target; do
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "docs lint: $doc links to missing file: $target" >&2
      docs_lint_failed=1
    fi
  done < <(doc_links "$doc")
done
[ "$docs_lint_failed" -eq 0 ] || exit 1

# Docs lint, part 2: every docs/*.md must be reachable from README.md
# by following Markdown links — an unreachable doc is dead documentation
# nobody browsing from the front page will find.
reachable="README.md"
frontier="README.md"
while [ -n "$frontier" ]; do
  next=""
  for doc in $frontier; do
    dir=$(dirname "$doc")
    while IFS= read -r target; do
      for cand in "$dir/$target" "$target"; do
        [ -e "$cand" ] || continue
        case "$cand" in *.md) ;; *) continue ;; esac
        norm=$(realpath --relative-to=. "$cand")
        case " $reachable " in *" $norm "*) ;; *)
          reachable="$reachable $norm"
          next="$next $norm"
        ;; esac
        break
      done
    done < <(doc_links "$doc")
  done
  frontier="$next"
done
for doc in docs/*.md; do
  case " $reachable " in
    *" $doc "*) ;;
    *) echo "docs lint: $doc is not reachable from README.md" >&2
       docs_lint_failed=1 ;;
  esac
done
[ "$docs_lint_failed" -eq 0 ] || exit 1
echo "docs lint: ok"
