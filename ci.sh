#!/usr/bin/env bash
# Workspace CI gate: build, test, formatting, and lint-clean.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

# The full suite runs twice: once with extraction pinned to one worker
# and once on an 8-worker pool. Extraction fans pages out on the pool
# (`OBJECTRUNNER_THREADS` sizes it); induction does not fan out and
# reads no thread setting, so the second pass checks the extract-only
# paths against the same goldens at another worker count.
# tests/determinism.rs pins that no output depends on the interner's
# numbering.
echo "==> cargo test (OBJECTRUNNER_THREADS=1)"
OBJECTRUNNER_THREADS=1 cargo test --workspace -q

echo "==> cargo test (OBJECTRUNNER_THREADS=8)"
OBJECTRUNNER_THREADS=8 cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Release-only gates: two test binaries whose bounds were set on
# release builds, so the debug passes above skip them. stream_rss
# streams a 1k- and a 10k-page corpus through `extract_stream` and
# holds peak RSS flat (growth under half the big corpus's bytes and
# never over 64 MB, peak < 256 MB); obs_overhead
# holds the full live-telemetry stack within 2% (+500 us) of a
# disabled-observability pipeline run. Each binary holds one test, so
# nothing else shares its process or competes for the CPU.
echo "==> release gates (stream RSS ceiling, observability overhead)"
cargo test --release -q --test stream_rss
cargo test --release -q -p objectrunner-serve --test obs_overhead

# Ledger smoke: the benchmark harness under ledger/ is a cargo
# workspace of its own that calls the core and serve APIs by path. Its
# smoke test runs every workload at --smoke scale, offline, against a
# daemon it builds itself (about 10 s once built), so an API change
# that breaks the harness fails here rather than in a benchmark run.
# `--locked` makes a change to the crates' dependency edges fail here
# ("cannot update the lock file") instead of rewriting the harness's
# committed lockfile. Build outputs go where ledger/run.sh puts them.
echo "==> ledger smoke"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo test --release --locked --manifest-path ledger/Cargo.toml

# Serving-layer smoke: drive the objectrunner-serve daemon through the
# full wrapper lifecycle over its line-delimited JSON protocol —
# induce a golden source, extract twice from the cache (the second
# must be a cache hit with no Wrap stage in its timings), feed a
# drifted batch, and require the stale -> re-induced transition to
# show up in the response and in `status`.
echo "==> serve smoke (cache hit + drift -> re-induce)"
SERVE=target/release/objectrunner-serve
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
"$SERVE" seed-corpus --domain concerts --name smoke --seed 17000 --pages 15 \
         --out "$SMOKE/clean" 2>/dev/null
"$SERVE" seed-corpus --domain concerts --name smoke --seed 17000 --pages 15 \
         --drift 0.8 --out "$SMOKE/drifted" 2>/dev/null
{
  echo "{\"cmd\":\"induce\",\"source\":\"smoke\",\"domain\":\"concerts\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"smoke\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"smoke\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"smoke\",\"dir\":\"$SMOKE/drifted\"}"
  echo "{\"cmd\":\"status\"}"
} | "$SERVE" --store "$SMOKE/wrappers" > "$SMOKE/session.jsonl"
test "$(wc -l < "$SMOKE/session.jsonl")" -eq 5
grep -q '"ok":true' "$SMOKE/session.jsonl"
! grep -q '"ok":false' "$SMOKE/session.jsonl"
sed -n 1p "$SMOKE/session.jsonl" | grep -q '"stage":"wrap"'       # induce ran Wrap
sed -n 3p "$SMOKE/session.jsonl" | grep -q '"cache":"hit"'        # cached path
! sed -n 3p "$SMOKE/session.jsonl" | grep -q '"stage":"wrap"'     # ... skipped Wrap
sed -n 4p "$SMOKE/session.jsonl" | grep -q '"reinduced":true'     # container redesign -> full re-induction
sed -n 5p "$SMOKE/session.jsonl" | grep -q '"state":"reinduced"'  # status agrees
sed -n 5p "$SMOKE/session.jsonl" | grep -q '"revision":2'
echo "    serve smoke OK"

# Repair smoke: the cheap recovery path. Separator-tier drift (0.25)
# must be absorbed by tree-diff *repair* — revision bumps, provenance
# recorded, no induction stage runs — while the container-tier drift
# above (0.8) already proved the loud fallback to re-induction. Then
# regenerate the drift sweep and require it to be byte-identical to
# the committed table (every number in it is deterministic), which
# pins the repaired-precision and trigger columns.
echo "==> repair smoke (separator drift -> repaired + drift_sweep table)"
"$SERVE" seed-corpus --domain concerts --name repairsmoke --seed 17100 --style 0 \
         --pages 15 --out "$SMOKE/repair-clean" 2>/dev/null
"$SERVE" seed-corpus --domain concerts --name repairsmoke --seed 17100 --style 0 \
         --pages 15 --drift 0.25 --out "$SMOKE/repair-sep" 2>/dev/null
{
  echo "{\"cmd\":\"induce\",\"source\":\"repairsmoke\",\"domain\":\"concerts\",\"dir\":\"$SMOKE/repair-clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"repairsmoke\",\"dir\":\"$SMOKE/repair-sep\"}"
  echo "{\"cmd\":\"status\"}"
} | "$SERVE" --store "$SMOKE/repair-wrappers" > "$SMOKE/repair.jsonl"
test "$(wc -l < "$SMOKE/repair.jsonl")" -eq 3
! grep -q '"ok":false' "$SMOKE/repair.jsonl"
sed -n 2p "$SMOKE/repair.jsonl" | grep -q '"repaired":true'       # patched, not re-induced
sed -n 2p "$SMOKE/repair.jsonl" | grep -q '"reinduced":false'
sed -n 2p "$SMOKE/repair.jsonl" | grep -q '"revision":2'
! sed -n 2p "$SMOKE/repair.jsonl" | grep -q '"stage":"wrap"'      # no induction stage ran
sed -n 3p "$SMOKE/repair.jsonl" | grep -q '"state":"repaired"'    # status agrees
sed -n 3p "$SMOKE/repair.jsonl" | grep -q '"repaired_from":1'     # provenance persisted
sed -n 3p "$SMOKE/repair.jsonl" | grep -q 'repaired: revision 2'  # transition logged
target/release/drift_sweep > "$SMOKE/drift_sweep.txt"
cmp results/drift_sweep.txt "$SMOKE/drift_sweep.txt"
grep -q 'silent' "$SMOKE/drift_sweep.txt"                         # blind-spot rows now trigger
grep -q 'declined' "$SMOKE/drift_sweep.txt"                       # container tiers fall back
! grep -q 'BLIND' "$SMOKE/drift_sweep.txt"                        # no silent zero-precision rows
echo "    repair smoke OK"

# Results gate: regenerate every paper table in results/ with the
# shipped binaries and require it byte-identical to the committed
# file, so no change to the pipeline moves a paper number. objstore_summary's latency line reads store timing
# histograms, so every line but that one is compared.
echo "==> results gate (paper tables byte-identical to results/)"
for bin in table1 table2 table3 figure6 support_sweep dictionary_coverage; do
    target/release/$bin > "$SMOKE/$bin.txt" 2>/dev/null
    cmp "results/$bin.txt" "$SMOKE/$bin.txt"
done
LATENCY='^latency (store histograms)'
target/release/objstore_summary 2>/dev/null > "$SMOKE/objstore_summary.txt"
grep -q "$LATENCY" "$SMOKE/objstore_summary.txt"
cmp <(grep -v "$LATENCY" results/objstore_summary.txt) \
    <(grep -v "$LATENCY" "$SMOKE/objstore_summary.txt")
echo "    results gate OK"

# Streaming smoke: the crawl-scale path end to end through the CLI.
# The corpus generator writes a 2k-page corpus matching the template
# the serve smoke's re-induced wrapper was trained on (same name/seed,
# drift 0.8 is deterministic), and `extract-stream` streams it back as
# one JSON line per page. The RSS ceiling is the stream_rss release
# gate above; streamed-equals-materialized is tests/stream_equivalence.rs.
echo "==> stream smoke (2k-page corpus through extract-stream)"
target/release/objectrunner-webgen --domain concerts --name smoke --seed 17000 \
    --pages 2000 --drift 0.8 --out-dir "$SMOKE/crawl" 2>/dev/null
"$SERVE" extract-stream --wrapper "$SMOKE/wrappers/smoke.orw" \
    --pages "$SMOKE/crawl" --threads 4 > "$SMOKE/stream.jsonl" 2>/dev/null
test "$(wc -l < "$SMOKE/stream.jsonl")" -eq 2000
sed -n 1p "$SMOKE/stream.jsonl" | grep -q '"page":0'
grep -q '"objects":\[{' "$SMOKE/stream.jsonl"     # wrapper extracts, not just echoes
echo "    stream smoke OK"

# Object-store smoke: the durable sink end to end. A daemon session
# harvests a clean corpus into --object-store twice (the second
# extract must dedup to zero new objects), then a *fresh* process
# reopens the same directory — objects, per-attribute provenance
# (source, page id, wrapper revision, confidence) and cursors must
# all survive the restart, and a compaction must leave query results
# byte-identical. The CLI path is covered too: `extract-stream` with
# a pinned --extracted-at must produce bit-identical store dirs at 1
# and 8 threads. Reopen and compaction at the library level are the
# objstore crate's own tests.
echo "==> objstore smoke (durable sink, restart survival, compact fixed point)"
OBJ="$SMOKE/objects"
{
  echo "{\"cmd\":\"induce\",\"source\":\"objsmoke\",\"domain\":\"concerts\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"objsmoke\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"objsmoke\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"store-status\"}"
} | "$SERVE" --store "$SMOKE/obj-wrappers" --object-store "$OBJ" > "$SMOKE/obj1.jsonl"
! grep -q '"ok":false' "$SMOKE/obj1.jsonl"
sed -n 2p "$SMOKE/obj1.jsonl" | grep -q '"store":'                # sink reported
sed -n 2p "$SMOKE/obj1.jsonl" | grep -q '"duplicates":0'          # first pass: all new
sed -n 3p "$SMOKE/obj1.jsonl" | grep -q '"new":0'                 # re-extract: all deduped
sed -n 4p "$SMOKE/obj1.jsonl" | grep -qv '"live_objects":0'       # something persisted
{
  echo '{"cmd":"query","limit":500}'
  echo '{"cmd":"store-status"}'
  echo '{"cmd":"compact"}'
  echo '{"cmd":"query","limit":500}'
} | "$SERVE" --store "$SMOKE/obj-wrappers" --object-store "$OBJ" > "$SMOKE/obj2.jsonl"
! grep -q '"ok":false' "$SMOKE/obj2.jsonl"
sed -n 1p "$SMOKE/obj2.jsonl" | grep -q '"source":"objsmoke"'     # provenance survived
sed -n 1p "$SMOKE/obj2.jsonl" | grep -q '"page":"page-'           # ... the restart, per
sed -n 1p "$SMOKE/obj2.jsonl" | grep -q '"revision":1'            # ... attribute: page,
sed -n 1p "$SMOKE/obj2.jsonl" | grep -q '"confidence":'           # ... revision, conf
sed -n 3p "$SMOKE/obj2.jsonl" | grep -q '"live_records":'         # compact reported
sed -n 1p "$SMOKE/obj2.jsonl" | sed 's/"trace":[0-9]*//' > "$SMOKE/q-before"
sed -n 4p "$SMOKE/obj2.jsonl" | sed 's/"trace":[0-9]*//' > "$SMOKE/q-after"
cmp "$SMOKE/q-before" "$SMOKE/q-after"                            # compact fixed point
"$SERVE" extract-stream --wrapper "$SMOKE/obj-wrappers/objsmoke.orw" \
    --pages "$SMOKE/clean" --threads 1 --object-store "$SMOKE/obj-t1" \
    --extracted-at 1700000000000000 > /dev/null 2> "$SMOKE/sink-t1.log"
"$SERVE" extract-stream --wrapper "$SMOKE/obj-wrappers/objsmoke.orw" \
    --pages "$SMOKE/clean" --threads 8 --object-store "$SMOKE/obj-t8" \
    --extracted-at 1700000000000000 > /dev/null 2> "$SMOKE/sink-t8.log"
grep -q 'object store:' "$SMOKE/sink-t1.log"
diff -r "$SMOKE/obj-t1" "$SMOKE/obj-t8"                           # bit-identical store
echo "    objstore smoke OK"

# Observability smoke: run the golden corpus with tracing enabled,
# schema-check the JSONL and Chrome trace_event exports with
# `obs_check`, and diff the metrics snapshot against the committed
# baseline (work counters exact within tolerance; timings, memo
# hit/miss splits and thread gauges are skipped as machine-dependent).
# The overhead budget is the obs_overhead release gate above.
echo "==> obs smoke (exporters + baseline diff)"
target/release/obs_golden --out "$SMOKE/obs" > "$SMOKE/obs_report.txt"
OBS_CHECK=target/release/obs_check
"$OBS_CHECK" jsonl "$SMOKE/obs/events.jsonl"
"$OBS_CHECK" chrome "$SMOKE/obs/trace.json"
"$OBS_CHECK" diff results/obs_baseline.json "$SMOKE/obs/snapshot.json" \
  --tolerance 0.02 --skip exec.threads
grep -q 'pipeline.induce' "$SMOKE/obs_report.txt"
echo "    obs smoke OK"

# Live-telemetry smoke: drive the daemon over stdin with the access
# log capped tiny and a 50 ms slow-trace floor. The heavy request —
# the 2000-page drifted crawl from the stream smoke, against the
# wrapper the serve smoke re-induced on that exact template — must be
# retained by the tail sampler and come back through `trace slow` with
# its span tree; `watch` must stream schema-complete snapshot lines;
# `metrics-text` must be a Prometheus-style exposition; `status.live`
# must surface the windowed histograms and the effective threshold;
# and the access log must rotate under its cap with one structured
# line per request.
echo "==> obs-live smoke (watch + trace slow + access log rotation)"
{
  echo "{\"cmd\":\"extract\",\"source\":\"smoke\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"smoke\",\"dir\":\"$SMOKE/clean\"}"
  echo "{\"cmd\":\"extract\",\"source\":\"smoke\",\"dir\":\"$SMOKE/crawl\"}"
  echo '{"cmd":"watch","count":2,"interval_micros":1000}'
  echo '{"cmd":"metrics-text"}'
  echo '{"cmd":"trace","kind":"slow","limit":3}'
  echo '{"cmd":"status"}'
} | "$SERVE" --store "$SMOKE/wrappers" --access-log "$SMOKE/access.jsonl" \
      --access-log-max-bytes 450 --slow-trace-micros 50000 > "$SMOKE/live.jsonl"
test "$(grep -c '"type":"watch"' "$SMOKE/live.jsonl")" -eq 2
WATCH=$(grep '"type":"watch"' "$SMOKE/live.jsonl" | head -1)
echo "$WATCH" | grep -q '"tick":0'
echo "$WATCH" | grep -q '"requests":'
echo "$WATCH" | grep -q '"rps_60s":'
echo "$WATCH" | grep -q '"p99_us":'
echo "$WATCH" | grep -q '"dropped_spans":'
echo "$WATCH" | grep -q '"access_log_dropped":0'
grep -q '^# TYPE objectrunner_serve_request_latency_micros histogram' "$SMOKE/live.jsonl"
grep -q '^# EOF' "$SMOKE/live.jsonl"
grep '"cmd":"trace"' "$SMOKE/live.jsonl" | grep -q '"kind":"slow"'
grep '"kind":"slow"' "$SMOKE/live.jsonl" | grep -q '"retained":[1-9]'    # 2k-page extract kept
grep '"kind":"slow"' "$SMOKE/live.jsonl" | grep -q '"name":"serve.extract"' # ... with its spans
grep -q '"slow_trace_threshold_micros":50000' "$SMOKE/live.jsonl"        # floor, adaptive cold
grep -q '"objectrunner.serve.request.latency_micros":{"rate_1s"' "$SMOKE/live.jsonl"
grep -q '"rotations":[1-9]' "$SMOKE/live.jsonl"                          # status.live.access_log
test -f "$SMOKE/access.jsonl"
test -f "$SMOKE/access.jsonl.1"
head -1 "$SMOKE/access.jsonl" | grep -q '^{"ts_unix_micros":'
grep -q '"cmd":"extract"' "$SMOKE/access.jsonl" "$SMOKE/access.jsonl.1"
grep -q '"outcome":"ok"' "$SMOKE/access.jsonl" "$SMOKE/access.jsonl.1"
echo "    obs-live smoke OK"

echo "CI OK"
