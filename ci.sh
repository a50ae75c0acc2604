#!/usr/bin/env bash
# Workspace CI gate: build, test, formatting, and lint-clean.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

# The full suite runs twice: once pinned to a sequential executor and
# once on an 8-worker pool. Each run is a fresh process, so the second
# pass also proves the parallel pipeline reproduces the golden
# snapshots with its own interner state — the cross-process half of
# the determinism guarantee (tests/determinism.rs is the in-process
# half).
echo "==> cargo test (OBJECTRUNNER_THREADS=1)"
OBJECTRUNNER_THREADS=1 cargo test --workspace -q

echo "==> cargo test (OBJECTRUNNER_THREADS=8)"
OBJECTRUNNER_THREADS=8 cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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

# Bench smoke: regenerate the annotation trajectory point and sanity-
# check its shape. The committed BENCH_annotation.json is a recorded
# run of the same binary; this stage only asserts the bench still
# produces a well-formed document (timings vary by machine and load,
# so no thresholds are enforced here).
echo "==> bench smoke (BENCH_annotation.json)"
target/release/bench_annotation > "$SMOKE/bench_annotation.json"
grep -q '"bench": "annotation"' "$SMOKE/bench_annotation.json"
grep -q '"aggregate_speedup_vs_seed"' "$SMOKE/bench_annotation.json"
grep -q '"domain":"Cars"' "$SMOKE/bench_annotation.json"
grep -q '"cache_hit_rate"' "$SMOKE/bench_annotation.json"
echo "    bench smoke OK"

# Streaming smoke: the crawl-scale path end to end. The corpus
# generator CLI writes a 2k-page corpus matching the template the
# serve smoke's re-induced wrapper was trained on (same name/seed,
# drift 0.8 is deterministic), `extract-stream` streams it back as one
# JSON line per page, and the streaming bench regenerates
# BENCH_extract.json at 10k pages to check its sanity fields: peak RSS
# flat across a 10x corpus and under a hard ceiling, and streamed
# output equal to the materialized path. Engine-speedup timings vary
# by machine and load, so no threshold is enforced here — the
# committed BENCH_extract.json records the reference run.
echo "==> stream smoke (10k-page corpus, RSS ceiling, BENCH_extract.json sanity)"
target/release/objectrunner-webgen --domain concerts --name smoke --seed 17000 \
    --pages 2000 --drift 0.8 --out-dir "$SMOKE/crawl" 2>/dev/null
"$SERVE" extract-stream --wrapper "$SMOKE/wrappers/smoke.orw" \
    --pages "$SMOKE/crawl" --threads 4 > "$SMOKE/stream.jsonl" 2>/dev/null
test "$(wc -l < "$SMOKE/stream.jsonl")" -eq 2000
sed -n 1p "$SMOKE/stream.jsonl" | grep -q '"page":0'
grep -q '"objects":\[{' "$SMOKE/stream.jsonl"     # wrapper extracts, not just echoes
target/release/bench_extract_stream --pages 10000 > "$SMOKE/bench_extract.json"
grep -q '"bench": "extract_stream"' "$SMOKE/bench_extract.json"
grep -q '"rss_flat_ok": true' "$SMOKE/bench_extract.json"
grep -q '"stream_equals_batch": true' "$SMOKE/bench_extract.json"
HWM_KB=$(grep -o '"vmhwm_after_big_kb": [0-9]*' "$SMOKE/bench_extract.json" | grep -o '[0-9]*')
test "$HWM_KB" -lt 262144                         # 10k-page stream stays under 256 MB
echo "    stream smoke OK"

# Object-store smoke: the durable sink end to end. A daemon session
# harvests a clean corpus into --object-store twice (the second
# extract must dedup to zero new objects), then a *fresh* process
# reopens the same directory — objects, per-attribute provenance
# (source, page id, wrapper revision, confidence) and cursors must
# all survive the restart, and a compaction must leave query results
# byte-identical. The CLI path is covered too: `extract-stream` with
# a pinned --extracted-at must produce bit-identical store dirs at 1
# and 8 threads, and bench_objstore's sanity gates must hold.
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
target/release/bench_objstore --objects 2000 --queries 200 > "$SMOKE/bench_objstore.json"
grep -q '"bench": "objstore"' "$SMOKE/bench_objstore.json"
grep -q '"reopen_ok": true' "$SMOKE/bench_objstore.json"
grep -q '"compact_preserves_reads": true' "$SMOKE/bench_objstore.json"
echo "    objstore smoke OK"

# Serve-load smoke: the pooled serving core under real concurrent
# TCP load. bench_serve runs small (8 conns × 4 pipelined requests)
# against the worker pool; the schema and the two correctness gates
# must hold —
# every pooled response byte-identical (normalized) to a serial
# handle_line reference, and zero sheds at a correctly budgeted load.
# Timings vary by machine, so no RPS/latency thresholds here; the
# committed BENCH_serve.json records the reference 64-conn run.
echo "==> serve-load smoke (worker pool)"
target/release/bench_serve --conns 8 --requests 4 > "$SMOKE/bench_serve.json"
grep -q '"bench": "serve"' "$SMOKE/bench_serve.json"
grep -q '"host_cpus": [1-9]' "$SMOKE/bench_serve.json"
grep -q '"pooled_rps": [1-9]' "$SMOKE/bench_serve.json"
grep -q '"pooled_p99_micros": [0-9]' "$SMOKE/bench_serve.json"
grep -q '"batched_requests": [1-9]' "$SMOKE/bench_serve.json"   # bursts actually batched
grep -q '"shed_requests": 0' "$SMOKE/bench_serve.json"          # budgeted load sheds nothing
grep -q '"shed_conns": 0' "$SMOKE/bench_serve.json"
grep -q '"pooled_equals_serial": true' "$SMOKE/bench_serve.json" # byte-identical to serial
grep -q '"window_agrees_with_histogram": true' "$SMOKE/bench_serve.json" # windowed == cumulative
echo "    serve-load smoke OK"

# Observability smoke: run the golden corpus with tracing enabled,
# schema-check the JSONL and Chrome trace_event exports with
# `obs_check`, and diff the metrics snapshot against the committed
# baseline (work counters exact within tolerance; timings, memo
# hit/miss splits and thread gauges are skipped as machine-dependent).
# Finally enforce the observability overhead budget measured by
# bench_annotation above: enabled tracing must stay within 2%
# (+500 us slack) of the disabled run.
echo "==> obs smoke (exporters + baseline diff + overhead budget)"
target/release/obs_golden --out "$SMOKE/obs" --threads 2 > "$SMOKE/obs_report.txt"
OBS_CHECK=target/release/obs_check
"$OBS_CHECK" jsonl "$SMOKE/obs/events.jsonl"
"$OBS_CHECK" chrome "$SMOKE/obs/trace.json"
"$OBS_CHECK" diff results/obs_baseline.json "$SMOKE/obs/snapshot.json" \
  --tolerance 0.02 --skip exec.threads
grep -q 'pipeline.induce' "$SMOKE/obs_report.txt"
# bench_annotation's enabled handle runs with sliding windows, tail
# sampling and the access log all on, so this gate covers the full
# live-telemetry stack.
grep -q '"obs_overhead_ok": true' "$SMOKE/bench_annotation.json"
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
