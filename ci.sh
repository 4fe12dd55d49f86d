#!/usr/bin/env bash
# Local CI: format, lint, build, and the tier-1 test suite — fully offline.
#
# Usage: ./ci.sh [--quick]
#   --quick  fast tier: fmt/clippy/build/test, a build of the perfbench
#            benchmark against the current API, plus the byte-identity gates
#            (thread-count, profiler zero-perturbation, sharded-calendar,
#            committed fig9 baseline, per-target figure, trace, metrics
#            and faulted-fig9 digests). Minutes, suitable for every push.
#   (bare)   full tier: the quick tier plus fault/adversary/crash soaks,
#            the chaos explorer, the sweep + rack scaling measurements and
#            their BENCH_*.json artifacts, and the perf-regression gate.
#
# The BENCH_*.json artifacts are staged in a temp dir and only moved into
# the repo root after every gate has passed, so a failing run can never
# leave a half-regenerated (and silently stale) artifact pair behind.
set -euo pipefail
cd "$(dirname "$0")"

TIER=full
case "${1:-}" in
    --quick) TIER=quick ;;
    "") ;;
    *) echo "usage: ./ci.sh [--quick]" >&2; exit 2 ;;
esac

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# --workspace everywhere: the repo root is itself a package (resex-repro),
# so a bare `cargo build` would build only it — leaving the resex-bench
# `repro` binary the gates below depend on stale (or missing on a fresh
# clone), and skipping the member crates' test suites.
echo "==> cargo build --release --workspace"
cargo build --release --offline --workspace

echo "==> cargo build --release perfbench (the benchmark's own workspace)"
# perfbench/ is a separate workspace that drives the simulator through its
# public API, so the workspace build above cannot see it break. Built into
# perfbench/run.py's default target dir, so a later benchmark run is warm.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q --workspace (superset of tier-1)"
cargo test -q --offline --workspace

REPRO=./target/release/repro
# Pool width for the parallel legs: the host's cores, but at least 4 so
# cross-thread stealing is exercised even on small CI hosts.
PAR_THREADS="${RESEX_PAR_THREADS:-$(nproc)}"
if [ "$PAR_THREADS" -lt 4 ]; then PAR_THREADS=4; fi
CORES=$(nproc)
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
# The fault specs of the faulted-run gates: digested in both tiers, and
# soaked for determinism, recovery and Reso conservation in the full tier.
FAULTS="loss=0.01,corrupt=0.002,skip=0.02,capfail=0.02,seed=7"
SOAK="loss=0.01,flap_ms=50,flap_down_us=2000,seed=7"
CRASH="mgr_crash=0.01,mgr_down_ms=20,host_crash=0.002,host_down_ms=10,vm_crash=0.01,vm_down_ms=5,seed=7"

echo "==> determinism gate: fig9 --quick JSON, RESEX_THREADS=1 vs $PAR_THREADS"
RESEX_THREADS=1 "$REPRO" fig9 --quick --json "$TMP/fig9_seq.json" >/dev/null 2>&1
RESEX_THREADS="$PAR_THREADS" "$REPRO" fig9 --quick --json "$TMP/fig9_par.json" >/dev/null 2>&1
cmp "$TMP/fig9_seq.json" "$TMP/fig9_par.json"
echo "    byte-identical"

echo "==> sharded-determinism gate: RESEX_SHARDED=1 fig9 --quick vs monolithic calendar"
# The sharded runner's hard contract: advancing the calendar in
# conservative-lookahead windows (horizon = link one-way latency) must be
# state-neutral — not a byte of figure data may move.
RESEX_SHARDED=1 RESEX_THREADS=1 "$REPRO" fig9 --quick --json "$TMP/fig9_shard.json" >/dev/null 2>&1
cmp "$TMP/fig9_seq.json" "$TMP/fig9_shard.json"
echo "    byte-identical"

echo "==> zero-perturbation gate: profiled fig9 JSON byte-identical to unprofiled"
# The DES self-profiler must be a pure observer: running fig9 under
# `repro profile` may not change a byte of the figure data.
RESEX_THREADS=1 "$REPRO" profile fig9 --quick --json "$TMP/fig9_prof.json" \
    --profile-json "$TMP/fig9_report.json" >/dev/null 2>&1
cmp "$TMP/fig9_seq.json" "$TMP/fig9_prof.json"
grep -q '"schema": "resex-profile-v1"' "$TMP/fig9_report.json" || {
    echo "    FAIL: profile report missing schema"; exit 1; }
grep -q '"name": "FabricSync"' "$TMP/fig9_report.json" || {
    echo "    FAIL: profile report event-type table is empty"; exit 1; }
echo "    byte-identical; profile report parsed with a populated event-type table"

echo "==> adversary-off/crash-off byte-identity gate: fig9 --quick vs committed baseline"
# The antagonist plane's zero-cost contract — and the crash plane's: with
# no --adversary flag and no crash rates armed the binary must produce
# byte-for-byte the JSON committed before either plane existed. If this
# fails after an *intentional* fig9 format change, regenerate with:
#   RESEX_THREADS=1 ./target/release/repro fig9 --quick --json tests/baselines/fig9_quick.json
cmp tests/baselines/fig9_quick.json "$TMP/fig9_seq.json"
echo "    byte-identical to tests/baselines/fig9_quick.json"

echo "==> figure-digest gate: every repro target, trace, metrics and faulted fig9 run vs tests/baselines/quick_digests.txt"
# The behavioural contract is every byte `repro` emits, not just fig9:
# each target's JSON must hash to its committed digest. digest.py hashes
# one canonical form per target, independent of any JSON printer's version.
# `all` runs at pool width: the digests were made at RESEX_THREADS=1, so
# this also extends the thread-count gate above to every target. The
# observability outputs are guarded too: `trace` and `metrics` are the
# sha256 of the raw bytes of fig9 --quick's --trace and --metrics files.
# So are the faulted runs, where request timeouts, client retries and the
# watchdogs act: `fig9_faults`, `fig9_soak` and `fig9_crash` are the digest.py
# hashes of fig9 --quick under the full tier's FAULTS, SOAK and CRASH specs.
# If this fails after an *intentional* output change, regenerate with:
#   RESEX_THREADS=1 ./target/release/repro all --quick --json /tmp/all.json
#   ./target/release/repro rack --quick --json /tmp/rack.json
#   RESEX_THREADS=1 ./target/release/repro fig9 --quick --trace /tmp/t.json --metrics /tmp/m.jsonl
#   RESEX_THREADS=1 ./target/release/repro fig9 --quick --faults "$FAULTS" --json /tmp/faults.json
#   RESEX_THREADS=1 ./target/release/repro fig9 --quick --faults "$SOAK" --json /tmp/soak.json
#   RESEX_THREADS=1 ./target/release/repro fig9 --quick --faults "$CRASH" --json /tmp/crash.json
#   { python3 tests/baselines/digest.py /tmp/all.json /tmp/rack.json
#     echo "trace $(sha256sum < /tmp/t.json | cut -d' ' -f1)"
#     echo "metrics $(sha256sum < /tmp/m.jsonl | cut -d' ' -f1)"
#     for leg in faults soak crash; do
#       python3 tests/baselines/digest.py /tmp/$leg.json | sed "s/^fig9 /fig9_$leg /"
#     done
#   } > tests/baselines/quick_digests.txt
RESEX_THREADS="$PAR_THREADS" "$REPRO" all --quick --json "$TMP/all.json" >/dev/null 2>&1
"$REPRO" rack --quick --json "$TMP/rack.json" >/dev/null 2>&1
RESEX_THREADS=1 "$REPRO" fig9 --quick --trace "$TMP/trace.json" --metrics "$TMP/metrics.jsonl" >/dev/null 2>&1
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$FAULTS" --json "$TMP/faults.json" >/dev/null 2>&1
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$SOAK" --json "$TMP/soak.json" >/dev/null 2>&1
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$CRASH" --json "$TMP/crash.json" >/dev/null 2>&1
{
    python3 tests/baselines/digest.py "$TMP/all.json" "$TMP/rack.json"
    echo "trace $(sha256sum < "$TMP/trace.json" | cut -d' ' -f1)"
    echo "metrics $(sha256sum < "$TMP/metrics.jsonl" | cut -d' ' -f1)"
    for leg in faults soak crash; do
        python3 tests/baselines/digest.py "$TMP/$leg.json" | sed "s/^fig9 /fig9_$leg /"
    done
} > "$TMP/digests.txt"
MOVED=""
for t in fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ablation hw_qos scaling rack trace metrics \
        fig9_faults fig9_soak fig9_crash; do
    got=$(awk -v t="$t" '$1 == t { print $2 }' "$TMP/digests.txt")
    want=$(awk -v t="$t" '$1 == t { print $2 }' tests/baselines/quick_digests.txt)
    [ -n "$got" ] && [ "$got" = "$want" ] || MOVED="$MOVED $t"
done
[ -z "$MOVED" ] || { echo "    FAIL: output moved for:$MOVED"; exit 1; }
echo "    all 13 targets, the trace/metrics outputs and the faulted fig9 runs match their committed digests"

if [ "$TIER" = quick ]; then
    echo "==> OK (quick tier; run bare ./ci.sh for soak/chaos/perf and BENCH artifacts)"
    exit 0
fi

echo "==> fault-matrix smoke: fig9 --quick under 1% loss, 3 fault seeds"
for seed in 1 2 3; do
    "$REPRO" fig9 --quick --faults "loss=0.01,skip=0.02,capfail=0.02,seed=$seed" \
        >/dev/null 2>&1
    echo "    seed=$seed ok"
done

echo "==> faulted-run determinism gate: same fault seed, byte-identical JSON"
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$FAULTS" \
    --json "$TMP/fig9_fault_a.json" >/dev/null 2>&1
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$FAULTS" \
    --json "$TMP/fig9_fault_b.json" >/dev/null 2>&1
cmp "$TMP/fig9_fault_a.json" "$TMP/fig9_fault_b.json"
echo "    byte-identical"

echo "==> recovery soak gate: fig9 --quick under 1% loss + periodic link flaps"
# The self-healing layer's acceptance bar: the flapping sweep completes,
# permanently loses nothing (lost=0 on the printed recovery line, which
# only appears when reconnect-with-replay actually happened), and is
# byte-identical across two runs.
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$SOAK" \
    --json "$TMP/fig9_soak_a.json" > "$TMP/fig9_soak_a.txt" 2>&1
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$SOAK" \
    --json "$TMP/fig9_soak_b.json" > /dev/null 2>&1
cmp "$TMP/fig9_soak_a.json" "$TMP/fig9_soak_b.json"
grep -q "recovery: " "$TMP/fig9_soak_a.txt" || {
    echo "    FAIL: no recovery line — flaps never broke a QP"; exit 1; }
grep "recovery: " "$TMP/fig9_soak_a.txt" | grep -q " lost=0 " || {
    echo "    FAIL: requests permanently lost:"; \
    grep "recovery: " "$TMP/fig9_soak_a.txt"; exit 1; }
sed -n 's/^  recovery:/    survived flaps:/p' "$TMP/fig9_soak_a.txt"
echo "    byte-identical across runs, lost=0"

echo "==> adversary smoke gate: each attacker class completes and replays byte-identically"
for class in burst freeride poison collude; do
    SPEC="class=$class,seed=5"
    RESEX_THREADS=1 "$REPRO" fig9 --quick --adversary "$SPEC" \
        --json "$TMP/fig9_adv_a.json" > "$TMP/fig9_adv_a.txt" 2>&1
    RESEX_THREADS=1 "$REPRO" fig9 --quick --adversary "$SPEC" \
        --json "$TMP/fig9_adv_b.json" >/dev/null 2>&1
    cmp "$TMP/fig9_adv_a.json" "$TMP/fig9_adv_b.json"
    grep -q '"adversary"' "$TMP/fig9_adv_a.json" || {
        echo "    FAIL: $class: attacked run reported no adversary totals"; exit 1; }
    echo "    class=$class ok (complete, totals reported, replay byte-identical)"
done

echo "==> crash soak gate: fig9 --quick under a manager/host/VM crash mix"
# The crash plane's acceptance bar: a sweep peppered with outages in
# every failure domain completes, permanently loses nothing, conserves
# Resos (journal_divergence=0 on the printed crashes line), and replays
# byte-identically.
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$CRASH" \
    --json "$TMP/fig9_crash_a.json" > "$TMP/fig9_crash_a.txt" 2>&1
RESEX_THREADS=1 "$REPRO" fig9 --quick --faults "$CRASH" \
    --json "$TMP/fig9_crash_b.json" > /dev/null 2>&1
cmp "$TMP/fig9_crash_a.json" "$TMP/fig9_crash_b.json"
grep -q "crashes: " "$TMP/fig9_crash_a.txt" || {
    echo "    FAIL: no crashes line — the crash mix never fired"; exit 1; }
grep "crashes: " "$TMP/fig9_crash_a.txt" | grep -q "journal_divergence=0" || {
    echo "    FAIL: Resos not conserved across outages:"; \
    grep "crashes: " "$TMP/fig9_crash_a.txt"; exit 1; }
if grep -q "recovery: " "$TMP/fig9_crash_a.txt"; then
    grep "recovery: " "$TMP/fig9_crash_a.txt" | grep -q " lost=0 " || {
        echo "    FAIL: requests permanently lost:"; \
        grep "recovery: " "$TMP/fig9_crash_a.txt"; exit 1; }
fi
sed -n 's/^  crashes:/    survived crashes:/p' "$TMP/fig9_crash_a.txt"
echo "    byte-identical across runs, journal_divergence=0, lost=0"

echo "==> chaos explorer gate: fixed seed/budget must find zero invariant violations"
# The explorer generates random fault-schedule compositions and checks
# the global invariant registry over each run; any violation is shrunk
# to a minimal reproducer and fails the gate (nonzero exit). Raise the
# budget for longer soaks with RESEX_CHAOS_BUDGET=N.
CHAOS_BUDGET="${RESEX_CHAOS_BUDGET:-25}"
"$REPRO" chaos --budget "$CHAOS_BUDGET" --seed 5 > "$TMP/chaos.txt" 2>&1 || {
    echo "    FAIL: chaos explorer found violations:"; cat "$TMP/chaos.txt"; exit 1; }
grep -q "violations=0" "$TMP/chaos.txt" || {
    echo "    FAIL: unexpected chaos report:"; cat "$TMP/chaos.txt"; exit 1; }
sed -n 's/^chaos:/    /p' "$TMP/chaos.txt"

echo "==> sweep wall-clock: repro all --quick (per-target timings below)"
t0=$(date +%s.%N)
RESEX_THREADS=1 "$REPRO" all --quick >/dev/null
t1=$(date +%s.%N)
RESEX_THREADS="$PAR_THREADS" "$REPRO" all --quick >/dev/null
t2=$(date +%s.%N)

echo "==> rack scaling: repro rack --quick (128-host sharded rack), RESEX_THREADS=1 vs $PAR_THREADS"
# The sharded calendar's reason to exist: one shard per host hands the
# work-stealing pool genuinely parallel work. Both legs also re-check the
# run's determinism (JSON must not depend on the pool width).
r0=$(date +%s.%N)
RESEX_THREADS=1 "$REPRO" rack --quick --json "$TMP/rack_seq.json" >/dev/null 2>&1
r1=$(date +%s.%N)
RESEX_THREADS="$PAR_THREADS" "$REPRO" rack --quick --json "$TMP/rack_par.json" >/dev/null 2>&1
r2=$(date +%s.%N)
cmp "$TMP/rack_seq.json" "$TMP/rack_par.json"
RACK_HOSTS=$(grep -o '"hosts": [0-9]*' "$TMP/rack_seq.json" | head -1 | awk '{print $2}')

GIT_REV="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
# Tracked files differing from HEAD mean the numbers came from an
# uncommitted tree; `repro profile` stamps the same flag the same way.
if [ -n "$(git --no-optional-locks status --porcelain --untracked-files=no 2>/dev/null)" ]; then DIRTY=true; else DIRTY=false; fi
awk -v t0="$t0" -v t1="$t1" -v t2="$t2" -v r0="$r0" -v r1="$r1" -v r2="$r2" \
    -v par="$PAR_THREADS" -v cores="$CORES" -v rev="$GIT_REV" -v dirty="$DIRTY" -v hosts="$RACK_HOSTS" '
BEGIN {
    seq = t1 - t0; parallel = t2 - t1;
    rseq = r1 - r0; rpar = r2 - r1;
    printf "    sweep sequential (RESEX_THREADS=1):   %6.2f s\n", seq;
    printf "    sweep parallel   (RESEX_THREADS=%d):   %6.2f s\n", par, parallel;
    printf "    sweep speedup: %.2fx on %d core(s)\n", seq / parallel, cores;
    printf "    rack  sequential (RESEX_THREADS=1):   %6.2f s  (%.1f hosts/s)\n", rseq, hosts / rseq;
    printf "    rack  parallel   (RESEX_THREADS=%d):   %6.2f s  (%.1f hosts/s)\n", par, rpar, hosts / rpar;
    printf "    rack  speedup: %.2fx on %d core(s)\n", rseq / rpar, cores;
    printf "{\n  \"bench\": \"repro all --quick\",\n  \"git_rev\": \"%s\",\n  \"dirty\": %s,\n  \"flags\": \"all --quick\",\n  \"cores\": %d,\n  \"threads_parallel\": %d,\n  \"sequential_s\": %.3f,\n  \"parallel_s\": %.3f,\n  \"speedup\": %.3f,\n  \"rack\": {\n    \"bench\": \"repro rack --quick\",\n    \"hosts\": %d,\n    \"sequential_s\": %.3f,\n    \"parallel_s\": %.3f,\n    \"hosts_per_s_sequential\": %.1f,\n    \"hosts_per_s_parallel\": %.1f,\n    \"speedup\": %.3f\n  }\n}\n", rev, dirty, cores, par, seq, parallel, seq / parallel, hosts, rseq, rpar, hosts / rseq, hosts / rpar, rseq / rpar > "'"$TMP"'/BENCH_sweep.json";
}'
echo "    staged BENCH_sweep.json (rack leg byte-identical across pool widths)"

echo "==> parallel-speedup gate: pooled sweep must not run slower than sequential"
# On one core the pool resolves to sequential (see vendor/rayon), so the
# two legs time the same binary twice — only noise separates them. On a
# real multi-core host a speedup below 1.0x means the pool actively hurt,
# which is the bug this gate exists to catch.
SPEEDUP=$(grep -o '"speedup": [0-9.]*' "$TMP/BENCH_sweep.json" | head -1 | awk '{print $2}')
if [ "$CORES" -gt 1 ]; then
    awk -v s="$SPEEDUP" 'BEGIN { exit !(s < 1.0) }' && {
        echo "    FAIL: parallel sweep slower than sequential (speedup ${SPEEDUP}x on $CORES cores)"; exit 1; }
    echo "    speedup ${SPEEDUP}x on $CORES cores: ok"
else
    echo "    single core: gate not applicable (speedup ${SPEEDUP}x is noise)"
fi

echo "==> rack scaling gate: the sharded rack must scale with the pool"
# One shard per host means ~128 independent calendars per window: on a
# multi-core host the pool must convert that into wall-clock. ≥4 cores
# must reach 2x; 2–3 cores must at least not slow down; a single core
# only records the numbers (the two legs time the same sequential code).
RACK_SPEEDUP=$(grep -o '"speedup": [0-9.]*' "$TMP/BENCH_sweep.json" | tail -1 | awk '{print $2}')
if [ "$CORES" -ge 4 ]; then
    awk -v s="$RACK_SPEEDUP" 'BEGIN { exit !(s < 2.0) }' && {
        echo "    FAIL: rack speedup ${RACK_SPEEDUP}x < 2.0x on $CORES cores"; exit 1; }
    echo "    rack speedup ${RACK_SPEEDUP}x on $CORES cores: ok (>= 2.0x)"
elif [ "$CORES" -gt 1 ]; then
    awk -v s="$RACK_SPEEDUP" 'BEGIN { exit !(s < 1.0) }' && {
        echo "    FAIL: rack slower with the pool (speedup ${RACK_SPEEDUP}x on $CORES cores)"; exit 1; }
    echo "    rack speedup ${RACK_SPEEDUP}x on $CORES cores: ok (>= 1.0x)"
else
    echo "    single core: gate not applicable (rack speedup ${RACK_SPEEDUP}x recorded)"
fi

echo "==> perf profile: repro profile all --quick -> BENCH_profile.json"
# The committed perf artifact: merged self-profile of the whole sweep
# (top event types by self-time, allocs/event, events/sec, per-target
# wall-clock) stamped with git revision + thread count.
RESEX_THREADS="$PAR_THREADS" "$REPRO" profile all --quick \
    --profile-json "$TMP/BENCH_profile.json" >/dev/null 2>&1
grep -q '"schema": "resex-profile-v1"' "$TMP/BENCH_profile.json" || {
    echo "    FAIL: BENCH_profile.json missing schema"; exit 1; }
grep -q '"git_rev"' "$TMP/BENCH_profile.json" || {
    echo "    FAIL: BENCH_profile.json missing provenance"; exit 1; }
grep -q '"name": "FabricSync"' "$TMP/BENCH_profile.json" || {
    echo "    FAIL: BENCH_profile.json event-type table is empty"; exit 1; }
echo "    staged BENCH_profile.json"

echo "==> perf-regression gate: fresh events/sec vs committed BENCH_profile.json"
# Compares the fresh profile's merged events/sec against the last
# committed artifact. Shared CI boxes are noisy and thread counts may
# legitimately differ between commits, so the tolerance is deliberately
# loose (default: fail below 50% of the committed rate; override with
# RESEX_PERF_TOL=0.xx). It exists to catch order-of-magnitude
# regressions, not single-digit drift.
PERF_TOL="${RESEX_PERF_TOL:-0.5}"
COMMITTED_EPS=$(git show HEAD:BENCH_profile.json 2>/dev/null     | grep -o '"events_per_sec": [0-9.]*' | awk '{print $2}' || true)
FRESH_EPS=$(grep -o '"events_per_sec": [0-9.]*' "$TMP/BENCH_profile.json" | awk '{print $2}')
if [ -n "$COMMITTED_EPS" ] && [ -n "$FRESH_EPS" ]; then
    awk -v f="$FRESH_EPS" -v c="$COMMITTED_EPS" -v tol="$PERF_TOL"         'BEGIN { exit !(f < c * tol) }' && {
        echo "    FAIL: events/sec regressed: $FRESH_EPS < $PERF_TOL * committed $COMMITTED_EPS"; exit 1; }
    echo "    events/sec $FRESH_EPS vs committed $COMMITTED_EPS (tolerance ${PERF_TOL}x): ok"
else
    echo "    no committed BENCH_profile.json at HEAD: gate skipped"
fi

echo "==> bench-artifact stamping: both BENCH files must carry the same revision and dirty flag"
# The two artifacts are only comparable when regenerated together from
# the same tree; a mixed pair (one stale, one fresh, or one from a dirty
# tree) silently invalidates the speedup and events/sec numbers above.
SWEEP_REV=$(grep -o '"git_rev": "[a-z0-9]*"' "$TMP/BENCH_sweep.json" | head -1 | cut -d'"' -f4)
PROF_REV=$(grep -o '"git_rev": "[a-z0-9]*"' "$TMP/BENCH_profile.json" | head -1 | cut -d'"' -f4)
SWEEP_DIRTY=$(grep -o '"dirty": [a-z]*' "$TMP/BENCH_sweep.json" | head -1 | awk '{print $2}')
PROF_DIRTY=$(grep -o '"dirty": [a-z]*' "$TMP/BENCH_profile.json" | head -1 | awk '{print $2}')
[ "$SWEEP_REV" = "$PROF_REV" ] || {
    echo "    FAIL: BENCH_sweep.json ($SWEEP_REV) and BENCH_profile.json ($PROF_REV) were stamped at different commits"; exit 1; }
[ -n "$SWEEP_DIRTY" ] && [ "$SWEEP_DIRTY" = "$PROF_DIRTY" ] || {
    echo "    FAIL: BENCH_sweep.json (dirty=$SWEEP_DIRTY) and BENCH_profile.json (dirty=$PROF_DIRTY) disagree on the tree"; exit 1; }
echo "    both stamped at $SWEEP_REV (dirty=$SWEEP_DIRTY)"

# Every gate passed: only now do the staged artifacts replace the
# committed ones. A failure anywhere above leaves the repo's BENCH pair
# untouched (and still mutually consistent).
mv "$TMP/BENCH_sweep.json" BENCH_sweep.json
mv "$TMP/BENCH_profile.json" BENCH_profile.json
echo "==> BENCH_sweep.json + BENCH_profile.json updated"

echo "==> OK"
