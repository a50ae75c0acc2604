//! The serving core: wrapper cache, drift detection, re-induction.
//!
//! A [`Service`] owns a set of sources, each with a persisted wrapper
//! (see `objectrunner-store`). The protocol is line-delimited JSON —
//! one request object in, one response object out:
//!
//! * `{"cmd":"induce","source":S,"domain":D,"pages":[..]}` — run the
//!   full Parse→Wrap pipeline, persist the wrapper, respond with the
//!   extracted objects and stage timings (Wrap included);
//! * `{"cmd":"extract","source":S,"pages":[..]}` — the cached fast
//!   path: load the stored wrapper, skip induction entirely
//!   (Parse/Clean/Segment/Extract only), score template drift per
//!   page, and — past the threshold — flag the wrapper stale and
//!   re-induce from the buffered drifted pages;
//! * `{"cmd":"status"}` — daemon uptime, per-source counters,
//!   lifecycle state, last-activity timestamps, the transition log,
//!   a `serving` section (worker pool, in-flight requests, queue
//!   depth, shed and connection counters), and a `metrics` section
//!   (per-domain extract-latency and drift-score histograms, revision
//!   counts, annotation-memo hit rate);
//! * `{"cmd":"trace","limit":N}` — the span trees of the last `N`
//!   requests, from the observability buffer.
//!
//! Every response carries a `"trace"` field: the span-tree id of the
//! request that produced it, joinable against the `trace` command and
//! the JSONL/Chrome exporters.
//!
//! Page input is either inline (`"pages": [html, ..]`) or a directory
//! of `*.html` files (`"dir": "path"`, lexicographic order).
//!
//! ## Concurrency shape
//!
//! The service is `&self` end to end and shared across the daemon's
//! worker pool behind one `Arc`. Sources live in per-source
//! [`SourceShard`](crate::shard::SourceShard)s reached through
//! version-stamped [`Slot`](crate::slot::Slot)s: a cached `extract`
//! reads the registry and its wrapper snapshot with two atomic loads
//! (through a per-worker [`ReaderCache`]) and takes no lock until —
//! and unless — drift bookkeeping needs the shard's mutation lane.
//! Two sources never contend; two requests against the *same* source
//! serialize only their bookkeeping tails. [`Service::handle_batch`]
//! is the pooled entry point: consecutive `extract` requests against
//! one source share one registry lookup and one wrapper snapshot (see
//! `shard::extract_batch`), while every other command handles
//! line-at-a-time exactly as [`Service::handle_line`] does. Every
//! request — extract, repair, induce — runs entirely on the pool
//! worker that took it; no pipeline call spawns threads of its own.
//!
//! ## The drift lifecycle
//!
//! Every cached extraction computes the fraction of wrapper slots
//! (the separator matchers the SOD mapping reads) that fail to align
//! on each page (`core::matching::drift_score`). Pages at or above
//! [`ServeConfig::drift_threshold`] enter a bounded buffer. A wrapper
//! goes **stale** on either of two signals:
//!
//! * the batch's mean drift crosses the threshold, or
//! * the *silent miss*: at least
//!   [`ServeConfig::empty_page_threshold`] of the batch's pages
//!   extract zero objects while drift stays low — record-level markup
//!   changed without touching the separator slots the score watches.
//!
//! Once the buffer holds [`ServeConfig::min_reinduce_pages`] suspect
//! pages, the service tries the cheap path first: **tree-diff repair**
//! (`core::repair_wrapper`) patches the stored wrapper's matcher
//! paths, gap roles and annotation histograms through a GumTree-style
//! node mapping against the drifted template — no induction stages
//! run. A successful repair bumps the revision, records its
//! [`objectrunner_store::RepairProvenance`], persists, and flips the
//! state to **repaired**. When the repair is declined (container
//! redesign, lost gap, extraction coverage under
//! [`ServeConfig::repair_floor`]) the service falls back loudly to
//! full re-induction *from the buffered pages only* — mixing clean
//! and drifted pages would hand the sampler two templates at once —
//! and flips to **reinduced**. Either way the current batch is
//! replayed through the new wrapper.

use crate::shard::{self, ReaderCache, SourceMap};
use crate::slot::Slot;
use crate::telemetry::{AccessLog, TraceKind, TraceSampler, DEFAULT_RETAINED_PER_KIND};
use objectrunner_core::annotate::Annotator;
use objectrunner_core::pipeline::{Pipeline, PipelineConfig};
use objectrunner_core::sample::SampleConfig;
use objectrunner_objstore::{record_json, ObjectStore, Query, StoreStatus};
use objectrunner_obs::{
    export, Clock, HistogramSnapshot, Obs, Span, SpanRecord, WindowConfig, DEFAULT_SPAN_CAPACITY,
    LATENCY_BUCKETS_MICROS,
};
use objectrunner_sod::Instance;
use objectrunner_store::{save_file, Json, StoredWrapper};
use objectrunner_webgen::knowledge::recognizers_for;
use objectrunner_webgen::Domain;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

pub use crate::shard::WrapperState;

/// Worker threads of every pipeline call a request makes: one. A
/// request runs on the pool worker that took it — parallelism comes
/// from the pool, never from threads nested inside a worker.
pub(crate) const REQUEST_THREADS: Option<usize> = Some(1);

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding the persisted `<source>.orw` wrapper files.
    pub store_dir: PathBuf,
    /// Mean per-page drift at or above which a wrapper is stale.
    pub drift_threshold: f64,
    /// Capacity of the per-source drifted-page buffer.
    pub buffer_pages: usize,
    /// Drifted pages required before re-induction fires.
    pub min_reinduce_pages: usize,
    /// Minimum fraction of the buffered pages a *repaired* wrapper
    /// must extract on; below it the repair is rejected and the
    /// service falls back to full re-induction.
    pub repair_floor: f64,
    /// Fraction of a batch's pages extracting *zero* objects at or
    /// above which the wrapper is flagged stale even though drift
    /// stayed under the threshold (the silent-miss trigger: record
    /// markup can change without touching the separator slots the
    /// drift score watches).
    pub empty_page_threshold: f64,
    /// Recognizer coverage for (re-)induction.
    pub coverage: f64,
    /// Sample size k for (re-)induction.
    pub sample_size: usize,
    /// Directory of the durable object store (`--object-store`).
    /// `None` disables the sink and the query commands.
    pub object_store: Option<PathBuf>,
    /// Explicit floor (micros of *service* time) above which a request
    /// is retained as a slow trace. Combined with the adaptive
    /// windowed-p99 threshold: the effective threshold is the max of
    /// both (see [`ServiceShared::slow_threshold`]). `None` leaves
    /// retention purely adaptive.
    pub slow_trace_micros: Option<u64>,
    /// JSONL access log path (`--access-log`); `None` disables it.
    pub access_log: Option<PathBuf>,
    /// Size cap before the access log rotates to `<path>.1`.
    pub access_log_max_bytes: u64,
    /// Default tick interval for the `watch` streaming command.
    pub watch_interval_micros: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            store_dir: PathBuf::from("wrappers"),
            drift_threshold: 0.5,
            buffer_pages: 32,
            min_reinduce_pages: 6,
            repair_floor: 0.5,
            empty_page_threshold: 0.8,
            coverage: 0.2,
            sample_size: 12,
            object_store: None,
            slow_trace_micros: None,
            access_log: None,
            access_log_max_bytes: 64 << 20,
            watch_interval_micros: 1_000_000,
        }
    }
}

/// Static shape of the daemon's connection pool, published into the
/// `status` response's `serving` section by `conn::serve_tcp`. The
/// *live* numbers (in-flight, queue depth, sheds) come from the
/// metrics registry.
#[derive(Debug, Clone)]
pub struct PoolInfo {
    pub workers: usize,
    pub max_conns: usize,
    pub inflight_budget: usize,
    pub batch_max: usize,
}

pub(crate) fn err(msg: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(msg)),
    ])
}

/// Canonical JSON form of an extracted instance; fixed key order, so
/// equal instances render byte-identically (the round-trip tests and
/// the `extract-file` cold-process check compare these strings). The
/// codec lives in `objectrunner-objstore` now — the object store
/// persists the very same shape — and is re-exported here for the
/// protocol's historical import path.
pub use objectrunner_objstore::instance_json;

/// Everything the serving core shares across workers: configuration,
/// the source registry, the annotation-engine cache, the durable
/// sink, and the observability handle. `&self` throughout — the
/// per-source locking discipline lives in `shard.rs`.
pub(crate) struct ServiceShared {
    pub(crate) config: ServeConfig,
    /// Request spans and the serving metrics registry. Enabled by
    /// default in the daemon; [`Service::with_observability`] lets
    /// tests inject a fake-clock handle or a disabled one.
    pub(crate) obs: Obs,
    /// Time source shared with `obs` — uptime, request latency and
    /// last-activity all read through it so tests can advance time by
    /// hand.
    pub(crate) clock: Clock,
    /// `clock.monotonic_micros()` at construction; uptime base.
    pub(crate) start_mono: u64,
    /// Source name → shard, behind a version-stamped slot: readers
    /// snapshot the whole map lock-free; registrations publish a new
    /// map.
    pub(crate) registry: Slot<SourceMap>,
    /// Serializes registry *writers* (warm-from-disk, induction) so
    /// two racing registrations of one source insert once. Readers
    /// never take it.
    pub(crate) registry_write: Mutex<()>,
    /// Compiled annotation engines, one per domain, shared across
    /// inductions and drift-repair re-inductions: the recognizer set of
    /// a domain is fixed (per coverage setting), so the automatons are
    /// compiled once and the text memo cache stays warm between
    /// requests.
    pub(crate) annotators: Mutex<BTreeMap<String, Arc<Annotator>>>,
    /// The durable object sink, attached when
    /// [`ServeConfig::object_store`] names a directory. Extractions
    /// flow in (deduplicated, provenance-tagged) under the write half;
    /// `query` / `get` / `store-status` read concurrently.
    pub(crate) objstore: Option<RwLock<ObjectStore>>,
    /// Pool shape, set once by `conn::serve_tcp`; `None` for the
    /// stdin loop and in-process tests.
    pub(crate) pool: Mutex<Option<PoolInfo>>,
    /// Tail-based trace retention: bounded rings of the span trees of
    /// slow / errored / shed requests (`trace slow|errors|shed`).
    pub(crate) sampler: TraceSampler,
    /// Structured per-request JSONL log (`--access-log`); `None` when
    /// the daemon runs without one.
    pub(crate) access_log: Option<AccessLog>,
    /// Whether the span-buffer-wrapped warning has been emitted (once
    /// per daemon; the running count lives in `status.live`).
    span_loss_logged: AtomicBool,
}

/// The serving core. Owns the wrapper cache; one instance per daemon,
/// shared by reference across the connection pool.
pub struct Service {
    pub(crate) shared: Arc<ServiceShared>,
    /// Reader cache backing the cacheless convenience entry point
    /// [`Service::handle_line`] (stdin loop, tests). Pool workers own
    /// their caches and go through [`Service::handle_batch`] instead.
    fallback_cache: Mutex<ReaderCache>,
}

impl Service {
    /// A daemon-grade service: observability on, real clock, sliding
    /// windows feeding `status.live` / `watch` / the slow-trace
    /// threshold.
    pub fn new(config: ServeConfig) -> Service {
        let clock = Clock::system();
        let obs = Obs::with_windows(
            clock.clone(),
            DEFAULT_SPAN_CAPACITY,
            WindowConfig::default(),
        );
        Service::with_observability(config, obs, clock)
    }

    /// Construct with an explicit observability handle and clock —
    /// the test seam for fake-clock uptime/idle assertions and for
    /// running with observability disabled.
    ///
    /// When the config names an object-store directory that fails to
    /// open (corrupt store), this panics — a daemon must not come up
    /// silently dropping its sink. Callers wanting a softer failure
    /// open the store themselves first.
    pub fn with_observability(config: ServeConfig, obs: Obs, clock: Clock) -> Service {
        let start_mono = clock.monotonic_micros();
        let objstore = config.object_store.as_ref().map(|dir| {
            RwLock::new(
                ObjectStore::open(dir, obs.clone())
                    .unwrap_or_else(|e| panic!("object store {}: {e}", dir.display())),
            )
        });
        // Same contract as the object store: a daemon must not come up
        // silently dropping the log it was asked for.
        let access_log = config.access_log.as_ref().map(|path| {
            AccessLog::open(path, config.access_log_max_bytes)
                .unwrap_or_else(|e| panic!("access log {}: {e}", path.display()))
        });
        Service {
            shared: Arc::new(ServiceShared {
                config,
                obs,
                clock,
                start_mono,
                registry: Slot::new(Arc::new(SourceMap::new())),
                registry_write: Mutex::new(()),
                annotators: Mutex::new(BTreeMap::new()),
                objstore,
                pool: Mutex::new(None),
                sampler: TraceSampler::new(DEFAULT_RETAINED_PER_KIND),
                access_log,
                span_loss_logged: AtomicBool::new(false),
            }),
            fallback_cache: Mutex::new(ReaderCache::new()),
        }
    }

    /// The service's observability handle (spans + metrics registry).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// A fresh per-worker reader cache. Each pool worker (and any
    /// other long-lived caller of [`Service::handle_batch`]) should
    /// own one so steady-state reads share no mutable state.
    pub fn reader_cache(&self) -> ReaderCache {
        ReaderCache::new()
    }

    /// Publish the connection pool's shape into `status` responses.
    pub fn set_pool_info(&self, info: PoolInfo) {
        *self.shared.pool.lock().expect("pool info poisoned") = Some(info);
    }

    /// Handle one protocol line, producing one response line (no
    /// trailing newline). Never panics on malformed input.
    pub fn handle_line(&self, line: &str) -> String {
        let mut cache = self.fallback_cache.lock().expect("fallback cache poisoned");
        self.handle_line_with(line, &mut cache)
    }

    /// [`Service::handle_line`] against a caller-owned reader cache —
    /// the single-request path pool workers use for non-batchable
    /// commands.
    pub fn handle_line_with(&self, line: &str, cache: &mut ReaderCache) -> String {
        let arrival = self.shared.clock.monotonic_micros();
        match Json::parse(line) {
            Ok(req) => self.handle(&req, cache, arrival),
            Err(e) => err(&format!("bad request: {e}")).render(),
        }
    }

    /// Handle a pipelined burst of protocol lines, one response per
    /// line in order, all on the calling thread. Consecutive `extract`
    /// requests against the same source share one wrapper snapshot and
    /// run in request order (see `shard::extract_batch`), with
    /// byte-identical per-request responses; every other line is
    /// handled exactly as [`Service::handle_line`] would.
    pub fn handle_batch<S: AsRef<str>>(&self, lines: &[S], cache: &mut ReaderCache) -> Vec<String> {
        let arrival = self.shared.clock.monotonic_micros();
        self.handle_batch_at(lines, cache, arrival)
    }

    /// [`Service::handle_batch`] with an explicit arrival timestamp —
    /// the connection layer stamps arrival when the lines come off the
    /// socket, so the queue-wait half of the latency split covers the
    /// time spent behind admission control and batch mates.
    pub fn handle_batch_at<S: AsRef<str>>(
        &self,
        lines: &[S],
        cache: &mut ReaderCache,
        arrival_mono: u64,
    ) -> Vec<String> {
        let parsed: Vec<Result<Json, String>> = lines
            .iter()
            .map(|l| Json::parse(l.as_ref()).map_err(|e| format!("bad request: {e}")))
            .collect();
        let mut responses: Vec<String> = Vec::with_capacity(parsed.len());
        let mut i = 0;
        while i < parsed.len() {
            let req = match &parsed[i] {
                Err(e) => {
                    responses.push(err(e).render());
                    i += 1;
                    continue;
                }
                Ok(req) => req,
            };
            // Extend a batchable run: same source, all `extract`.
            if let Some(source) = batchable_source(req) {
                let mut j = i + 1;
                while j < parsed.len()
                    && parsed[j]
                        .as_ref()
                        .is_ok_and(|r| batchable_source(r) == Some(source))
                {
                    j += 1;
                }
                if j - i > 1 {
                    let group: Vec<&Json> = parsed[i..j]
                        .iter()
                        .map(|r| r.as_ref().expect("batch run parsed"))
                        .collect();
                    let spans: Vec<Span> = group
                        .iter()
                        .map(|_| {
                            self.shared
                                .obs
                                .counter_add("objectrunner.serve.requests.extract", 1);
                            self.shared.obs.trace("serve.extract")
                        })
                        .collect();
                    self.shared
                        .obs
                        .counter_add("objectrunner.serve.serving.batches", 1);
                    self.shared.obs.counter_add(
                        "objectrunner.serve.serving.batched_requests",
                        (j - i) as u64,
                    );
                    let started = self.shared.clock.monotonic_micros();
                    let queue_wait = started.saturating_sub(arrival_mono);
                    let results =
                        shard::extract_batch(&self.shared, cache, &group, &spans, Some(queue_wait));
                    let batch_size = j - i;
                    for ((response, span), req) in results.into_iter().zip(spans).zip(&group) {
                        let meta = RequestMeta {
                            cmd: "extract",
                            source: req.get("source").and_then(Json::as_str),
                            arrival_mono,
                            started_mono: started,
                            batched: true,
                            batch_size,
                        };
                        responses.push(self.shared.complete(span, response, &meta));
                    }
                    i = j;
                    continue;
                }
            }
            responses.push(self.handle(req, cache, arrival_mono));
            i += 1;
        }
        responses
    }

    fn handle(&self, req: &Json, cache: &mut ReaderCache, arrival_mono: u64) -> String {
        let shared = &self.shared;
        let started = shared.clock.monotonic_micros();
        let cmd = req.get("cmd").and_then(Json::as_str).map(str::to_owned);
        let span_name: &'static str = match cmd.as_deref() {
            Some("induce") => "serve.induce",
            Some("extract") => "serve.extract",
            Some("status") => "serve.status",
            Some("trace") => "serve.trace",
            Some("query") => "serve.query",
            Some("get") => "serve.get",
            Some("store-status") => "serve.store_status",
            Some("compact") => "serve.compact",
            _ => "serve.error",
        };
        let span = shared.obs.trace(span_name);
        shared.obs.counter_add(
            &format!(
                "objectrunner.serve.requests.{}",
                cmd.as_deref().unwrap_or("unknown")
            ),
            1,
        );
        let queue_wait = started.saturating_sub(arrival_mono);
        let response = match cmd.as_deref() {
            Some("induce") => shared.induce(req, &span),
            Some("extract") => shard::extract_batch(
                shared,
                cache,
                &[req],
                std::slice::from_ref(&span),
                Some(queue_wait),
            )
            .pop()
            .expect("one response per request"),
            Some("status") => shared.status(),
            Some("trace") => shared.trace_dump(req),
            Some("query") => shared.query_cmd(req, &span),
            Some("get") => shared.get_cmd(req),
            Some("store-status") => shared.store_status_cmd(),
            Some("compact") => shared.compact_cmd(&span),
            Some(other) => err(&format!("unknown cmd '{other}'")),
            None => err("missing 'cmd'"),
        };
        let meta = RequestMeta {
            cmd: cmd.as_deref().unwrap_or("unknown"),
            source: req.get("source").and_then(Json::as_str),
            arrival_mono,
            started_mono: started,
            batched: false,
            batch_size: 1,
        };
        shared.complete(span, response, &meta)
    }

    /// Parse `line` as a streaming protocol command, if it is one. The
    /// substring pre-filter keeps the connection layer from
    /// JSON-parsing every ordinary request line twice.
    pub fn special(&self, line: &str) -> Option<Special> {
        if !line.contains("watch") && !line.contains("metrics-text") {
            return None;
        }
        let req = Json::parse(line).ok()?;
        match req.get("cmd").and_then(Json::as_str) {
            Some("watch") => Some(Special::Watch {
                interval_micros: req
                    .get("interval_micros")
                    .and_then(Json::as_usize)
                    .map(|n| n as u64)
                    .unwrap_or(self.shared.config.watch_interval_micros),
                count: req
                    .get("count")
                    .and_then(Json::as_usize)
                    .map(|n| n as u64)
                    .unwrap_or(u64::MAX),
            }),
            Some("metrics-text") => Some(Special::MetricsText),
            _ => None,
        }
    }

    /// Run a streaming command, handing each output chunk to `emit`
    /// (one `watch` line per call, the whole text exposition for
    /// `metrics-text`; no trailing newline). `emit` returning `false`
    /// stops the stream — the peer went away.
    pub fn run_special(&self, spec: &Special, emit: &mut dyn FnMut(&str) -> bool) {
        match spec {
            Special::MetricsText => {
                self.shared
                    .obs
                    .counter_add("objectrunner.serve.requests.metrics_text", 1);
                emit(&self.metrics_text());
            }
            Special::Watch {
                interval_micros,
                count,
            } => {
                self.shared
                    .obs
                    .counter_add("objectrunner.serve.requests.watch", 1);
                let mut tick: u64 = 0;
                while tick < *count {
                    if !emit(&self.shared.watch_line(tick)) {
                        return;
                    }
                    tick += 1;
                    if tick < *count && *interval_micros > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(*interval_micros));
                    }
                }
            }
        }
    }

    /// Prometheus-style text exposition of the whole metrics registry
    /// (the `metrics-text` command).
    pub fn metrics_text(&self) -> String {
        export::prometheus_text(&self.shared.obs.snapshot())
    }

    /// Account request lines shed by admission control: a typed
    /// `serve.shed` span per line, tail retention under the `shed`
    /// kind, and an access-log line (outcome `shed`,
    /// `response_bytes` = the typed overload response).
    pub fn record_shed(&self, count: usize, arrival_mono: u64, response_bytes: usize) {
        let shared = &self.shared;
        let now = shared.clock.monotonic_micros();
        let wall = shared.clock.wall_unix_micros();
        let queue_wait = now.saturating_sub(arrival_mono);
        for _ in 0..count {
            let mut span = shared.obs.trace("serve.shed");
            let trace_id = span.trace_id();
            span.attr_str("outcome", "shed");
            span.attr_u64("queue_wait_micros", queue_wait);
            span.finish();
            shared
                .sampler
                .offer(&shared.obs, TraceKind::Shed, trace_id, 0, wall);
            shared.access_line(&AccessRecord {
                wall_unix_micros: wall,
                trace: trace_id,
                cmd: "shed",
                source: None,
                outcome: "shed",
                queue_wait_micros: queue_wait,
                service_micros: 0,
                batched: false,
                batch_size: 1,
                bytes: response_bytes as u64,
                revision: None,
            });
        }
    }
}

/// A protocol command whose output streams (or is not one JSON line),
/// peeled off the normal request path by the stdin loop and the
/// connection layer before `handle_batch` sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Special {
    /// `{"cmd":"watch","interval_micros":N,"count":N}` — one canonical
    /// metrics-snapshot line per tick (defaults: the daemon's
    /// `--watch-interval`, unbounded count).
    Watch { interval_micros: u64, count: u64 },
    /// `{"cmd":"metrics-text"}` — Prometheus-style text exposition.
    MetricsText,
}

/// The source of a request that can join an extract batch.
fn batchable_source(req: &Json) -> Option<&str> {
    match req.get("cmd").and_then(Json::as_str) {
        Some("extract") => req.get("source").and_then(Json::as_str),
        _ => None,
    }
}

/// Per-request bookkeeping carried from parse to completion: what ran,
/// when it arrived off the socket, when the service actually started
/// on it, and how it was batched.
pub(crate) struct RequestMeta<'a> {
    pub cmd: &'a str,
    pub source: Option<&'a str>,
    pub arrival_mono: u64,
    pub started_mono: u64,
    pub batched: bool,
    pub batch_size: usize,
}

/// One access-log line's fields, in render order.
struct AccessRecord<'a> {
    wall_unix_micros: u64,
    trace: u64,
    cmd: &'a str,
    source: Option<&'a str>,
    outcome: &'a str,
    queue_wait_micros: u64,
    service_micros: u64,
    batched: bool,
    batch_size: usize,
    bytes: u64,
    revision: Option<i64>,
}

/// Histogram names of the request-level latency split; public so
/// benches and operators can address the windowed views by name.
pub const REQUEST_LATENCY: &str = "objectrunner.serve.request.latency_micros";
pub const REQUEST_QUEUE_WAIT: &str = "objectrunner.serve.request.queue_wait_micros";

/// Windowed samples required before the adaptive slow-trace threshold
/// kicks in (a p99 over a handful of requests is noise).
const SLOW_MIN_SAMPLES: u64 = 16;

impl ServiceShared {
    /// The wrapper file for a source.
    pub(crate) fn wrapper_path(&self, source: &str) -> PathBuf {
        self.config.store_dir.join(format!("{source}.orw"))
    }

    /// Finish a request: stamp the span's outcome and queue wait,
    /// record the latency split into the request histograms (and the
    /// sliding windows behind them), echo the trace id into the
    /// response, retain the trace when it qualifies (errors always,
    /// slow past [`ServiceShared::slow_threshold`]), and append the
    /// access-log line. Returns the rendered response line.
    pub(crate) fn complete(&self, mut span: Span, response: Json, meta: &RequestMeta) -> String {
        let trace_id = span.trace_id();
        let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let queue_wait = meta.started_mono.saturating_sub(meta.arrival_mono);
        let service = self
            .clock
            .monotonic_micros()
            .saturating_sub(meta.started_mono);
        span.attr_str("outcome", if ok { "ok" } else { "error" });
        span.attr_u64("queue_wait_micros", queue_wait);
        span.finish();
        self.obs
            .histogram_record(REQUEST_LATENCY, &LATENCY_BUCKETS_MICROS, service);
        self.obs
            .histogram_record(REQUEST_QUEUE_WAIT, &LATENCY_BUCKETS_MICROS, queue_wait);
        self.obs
            .counter_add("objectrunner.serve.request.completed", 1);
        let revision = response.get("revision").and_then(Json::as_i64);
        let rendered = match response {
            Json::Obj(mut pairs) => {
                pairs.push(("trace".into(), Json::int(trace_id)));
                Json::Obj(pairs).render()
            }
            other => other.render(),
        };
        let wall = self.clock.wall_unix_micros();
        if !ok {
            self.sampler
                .offer(&self.obs, TraceKind::Error, trace_id, service, wall);
        } else if self.slow_threshold().is_some_and(|t| service >= t) {
            self.sampler
                .offer(&self.obs, TraceKind::Slow, trace_id, service, wall);
        }
        self.access_line(&AccessRecord {
            wall_unix_micros: wall,
            trace: trace_id,
            cmd: meta.cmd,
            source: meta.source,
            outcome: if ok { "ok" } else { "error" },
            queue_wait_micros: queue_wait,
            service_micros: service,
            batched: meta.batched,
            batch_size: meta.batch_size,
            bytes: rendered.len() as u64 + 1,
            revision,
        });
        self.note_span_loss();
        rendered
    }

    /// The service-time threshold (micros) above which a completed
    /// request's trace is retained as *slow*: the max of the explicit
    /// `--slow-trace-micros` floor and the adaptive windowed-60s p99
    /// of request latency (once [`SLOW_MIN_SAMPLES`] windowed samples
    /// exist). `None` — no floor, window still cold — retains nothing.
    pub(crate) fn slow_threshold(&self) -> Option<u64> {
        let adaptive = self.obs.windows().and_then(|w| {
            let win = w.get(REQUEST_LATENCY)?;
            let snap = win.snapshot(self.clock.monotonic_micros(), 60_000_000);
            (snap.count >= SLOW_MIN_SAMPLES).then(|| snap.quantile(0.99))
        });
        match (self.config.slow_trace_micros, adaptive) {
            (Some(floor), Some(p99)) => Some(floor.max(p99)),
            (Some(floor), None) => Some(floor),
            (None, adaptive) => adaptive,
        }
    }

    /// One canonical `watch` line: fixed key order, every value a pure
    /// function of the clock and the recorded metrics — byte-stable
    /// across thread counts under a pinned fake clock.
    pub(crate) fn watch_line(&self, tick: u64) -> String {
        let now = self.clock.monotonic_micros();
        let snap = self.obs.snapshot();
        let win = self.obs.windows().and_then(|w| w.get(REQUEST_LATENCY));
        let (rps_1s, rps_10s, rps_60s, p50, p99, p999) = match &win {
            Some(w) => {
                let s = w.snapshot(now, 60_000_000);
                (
                    w.rate(now, 1_000_000),
                    w.rate(now, 10_000_000),
                    w.rate(now, 60_000_000),
                    s.quantile(0.5),
                    s.quantile(0.99),
                    s.quantile(0.999),
                )
            }
            None => (0.0, 0.0, 0.0, 0, 0, 0),
        };
        let serving = |name: &str| format!("objectrunner.serve.serving.{name}");
        Json::Obj(vec![
            ("type".into(), Json::str("watch")),
            ("tick".into(), Json::int(tick)),
            (
                "uptime_micros".into(),
                Json::int(now.saturating_sub(self.start_mono)),
            ),
            (
                "requests".into(),
                Json::int(snap.counter("objectrunner.serve.request.completed")),
            ),
            ("rps_1s".into(), Json::Float(rps_1s)),
            ("rps_10s".into(), Json::Float(rps_10s)),
            ("rps_60s".into(), Json::Float(rps_60s)),
            ("p50_us".into(), Json::int(p50)),
            ("p99_us".into(), Json::int(p99)),
            ("p999_us".into(), Json::int(p999)),
            (
                "inflight".into(),
                Json::int(snap.gauge(&serving("inflight"))),
            ),
            (
                "queue_depth".into(),
                Json::int(snap.gauge(&serving("queue_depth"))),
            ),
            (
                "active_conns".into(),
                Json::int(snap.gauge(&serving("active_conns"))),
            ),
            (
                "shed_requests".into(),
                Json::int(snap.counter(&serving("shed_requests"))),
            ),
            ("dropped_spans".into(), Json::int(self.obs.dropped_spans())),
            (
                "access_log_dropped".into(),
                Json::int(
                    self.access_log
                        .as_ref()
                        .map(|l| l.stats().dropped)
                        .unwrap_or(0),
                ),
            ),
        ])
        .render()
    }

    /// Append one structured line to the access log, if one is open.
    fn access_line(&self, r: &AccessRecord) {
        let Some(log) = &self.access_log else { return };
        let line = Json::Obj(vec![
            ("ts_unix_micros".into(), Json::int(r.wall_unix_micros)),
            ("trace".into(), Json::int(r.trace)),
            ("cmd".into(), Json::str(r.cmd)),
            (
                "source".into(),
                r.source.map(Json::str).unwrap_or(Json::Null),
            ),
            ("outcome".into(), Json::str(r.outcome)),
            ("queue_wait_micros".into(), Json::int(r.queue_wait_micros)),
            ("service_micros".into(), Json::int(r.service_micros)),
            ("batched".into(), Json::Bool(r.batched)),
            ("batch_size".into(), Json::int(r.batch_size)),
            ("bytes".into(), Json::int(r.bytes)),
            (
                "revision".into(),
                r.revision.map(Json::int).unwrap_or(Json::Null),
            ),
        ])
        .render();
        log.write_line(&line);
    }

    /// Warn once (per daemon) when the span ring has wrapped; the
    /// running count stays visible in `status.live.dropped_spans`.
    fn note_span_loss(&self) {
        if self.obs.dropped_spans() > 0 && !self.span_loss_logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "objectrunner-serve: span buffer wrapped (oldest spans dropped); \
                 see status.live.dropped_spans"
            );
        }
    }

    /// The shared annotation engine for a domain (compiled on first
    /// use, then reused by every induction of that domain).
    fn annotator_for(&self, domain: Domain) -> Arc<Annotator> {
        let key = domain.name().to_lowercase();
        let mut cache = self.annotators.lock().expect("annotator cache poisoned");
        Arc::clone(cache.entry(key).or_insert_with(|| {
            Arc::new(Annotator::new(&recognizers_for(
                domain,
                self.config.coverage,
            )))
        }))
    }

    /// Pipeline configuration for (re-)induction. When a request span
    /// is supplied, the pipeline's own spans nest under it, so one
    /// trace id covers the request end-to-end.
    fn pipeline_config(&self, parent: Option<&Span>) -> PipelineConfig {
        PipelineConfig {
            sample: SampleConfig {
                sample_size: self.config.sample_size,
                ..SampleConfig::default()
            },
            obs: self.obs.clone(),
            trace_context: parent.filter(|s| s.is_enabled()).map(Span::context),
            ..PipelineConfig::default()
        }
    }

    /// Induce (or re-induce) a wrapper from scratch on the given pages.
    pub(crate) fn induce_wrapper(
        &self,
        source: &str,
        domain: Domain,
        revision: u64,
        pages: &[String],
        parent: &Span,
    ) -> Result<(StoredWrapper, Vec<Instance>, String), String> {
        let sod = domain.sod();
        let recognizers = recognizers_for(domain, self.config.coverage);
        let config = self.pipeline_config(Some(parent));
        let clean = config.clean.clone();
        let pipeline =
            Pipeline::with_annotator(sod.clone(), recognizers, self.annotator_for(domain))
                .with_config(config);
        let outcome = pipeline
            .run_on_html(pages)
            .map_err(|e| format!("induction failed: {e}"))?;
        let stored = StoredWrapper {
            source: source.to_owned(),
            domain: domain.name().to_lowercase(),
            revision,
            sod,
            wrapper: outcome.wrapper,
            main_block: outcome.main_block,
            clean,
            repair: None,
        };
        Ok((stored, outcome.objects, outcome.stats.to_json()))
    }

    fn induce(&self, req: &Json, span: &Span) -> Json {
        let source = match req.get("source").and_then(Json::as_str) {
            Some(s) => s.to_owned(),
            None => return err("missing 'source'"),
        };
        let domain = match req.get("domain").and_then(Json::as_str) {
            Some(name) => match Domain::by_name(name) {
                Some(d) => d,
                None => return err(&format!("unknown domain '{name}'")),
            },
            None => return err("missing 'domain'"),
        };
        let pages = match request_pages(req) {
            Ok(p) => p,
            Err(e) => return err(&e),
        };
        let revision = self
            .registry
            .load()
            .1
            .get(&source)
            .map(|shard| shard.snapshot().revision + 1)
            .unwrap_or(1);
        let (stored, objects, stats) =
            match self.induce_wrapper(&source, domain, revision, &pages, span) {
                Ok(r) => r,
                Err(e) => return err(&e),
            };
        if let Err(e) = self.persist(&stored) {
            return err(&e);
        }
        self.obs.counter_add("objectrunner.serve.inductions", 1);
        self.obs.gauge_set(
            &format!("objectrunner.serve.revision.{source}"),
            revision as i64,
        );
        let response = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("cmd".into(), Json::str("induce")),
            ("source".into(), Json::str(&source)),
            ("revision".into(), Json::int(revision as i64)),
            ("quality".into(), Json::Float(stored.wrapper.quality)),
            ("count".into(), Json::int(objects.len())),
            (
                "objects".into(),
                Json::Arr(objects.iter().map(instance_json).collect()),
            ),
            ("stats".into(), Json::Raw(stats)),
        ]);
        shard::install_induced(
            self,
            &source,
            stored,
            format!("induced: revision {revision}, {} pages", pages.len()),
        );
        response
    }

    pub(crate) fn persist(&self, stored: &StoredWrapper) -> Result<(), String> {
        std::fs::create_dir_all(&self.config.store_dir).map_err(|e| format!("store dir: {e}"))?;
        save_file(&self.wrapper_path(&stored.source), stored).map_err(|e| format!("persist: {e}"))
    }

    fn status(&self) -> Json {
        let now_mono = self.clock.monotonic_micros();
        let registry = self.registry.load().1;
        let sources = registry
            .iter()
            .map(|(name, s)| {
                let stored = s.snapshot();
                let lane = s.lane();
                let idle = if lane.last_activity_mono == 0 {
                    0
                } else {
                    now_mono.saturating_sub(lane.last_activity_mono)
                };
                Json::Obj(vec![
                    ("source".into(), Json::str(name)),
                    ("domain".into(), Json::str(&stored.domain)),
                    ("revision".into(), Json::int(stored.revision as i64)),
                    ("state".into(), Json::str(lane.state.as_str())),
                    ("quality".into(), Json::Float(stored.wrapper.quality)),
                    ("extracts".into(), Json::int(lane.extracts as i64)),
                    ("cache_hits".into(), Json::int(lane.cache_hits as i64)),
                    ("drift_events".into(), Json::int(lane.drift_events as i64)),
                    ("buffered".into(), Json::int(lane.buffer.len())),
                    (
                        "repair".into(),
                        match &stored.repair {
                            Some(p) => Json::Obj(vec![
                                ("repaired_from".into(), Json::int(p.repaired_from as i64)),
                                ("matched_exact".into(), Json::int(p.matched_exact)),
                                ("matched_container".into(), Json::int(p.matched_container)),
                                ("unmatched_old".into(), Json::int(p.unmatched_old)),
                                ("unmatched_new".into(), Json::int(p.unmatched_new)),
                            ]),
                            None => Json::Null,
                        },
                    ),
                    (
                        "last_activity_unix_micros".into(),
                        Json::int(lane.last_activity_wall),
                    ),
                    ("idle_micros".into(), Json::int(idle)),
                    (
                        "log".into(),
                        Json::Arr(lane.log.iter().map(Json::str).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("cmd".into(), Json::str("status")),
            (
                "uptime_micros".into(),
                Json::int(now_mono.saturating_sub(self.start_mono)),
            ),
            (
                // Echo of the tunable lifecycle knobs (CLI flags), so
                // an operator can read a daemon's effective thresholds
                // off a status probe.
                "config".into(),
                Json::Obj(vec![
                    (
                        "drift_threshold".into(),
                        Json::Float(self.config.drift_threshold),
                    ),
                    ("buffer_pages".into(), Json::int(self.config.buffer_pages)),
                    (
                        "min_reinduce_pages".into(),
                        Json::int(self.config.min_reinduce_pages),
                    ),
                    ("repair_floor".into(), Json::Float(self.config.repair_floor)),
                    (
                        "empty_page_threshold".into(),
                        Json::Float(self.config.empty_page_threshold),
                    ),
                ]),
            ),
            ("serving".into(), self.serving_section()),
            ("live".into(), self.live_section()),
            ("sources".into(), Json::Arr(sources)),
            ("metrics".into(), self.metrics_section()),
            (
                // Durable-sink summary (per-domain live objects, dedup
                // fusion rate, last compaction); null when the daemon
                // runs without `--object-store`.
                "object_store".into(),
                match &self.objstore {
                    Some(store) => {
                        store_status_json(&store.read().expect("object store poisoned").status())
                    }
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The status response's `serving` section: the pool shape (null
    /// for the stdin loop), live load gauges, batching and shedding
    /// counters, and the per-connection I/O counters — everything an
    /// operator needs to see back-pressure building before it sheds.
    fn serving_section(&self) -> Json {
        let snap = self.obs.snapshot();
        let pool = self.pool.lock().expect("pool info poisoned").clone();
        let serving = |name: &str| format!("objectrunner.serve.serving.{name}");
        let conn = |name: &str| format!("objectrunner.serve.conn.{name}");
        Json::Obj(vec![
            (
                "pool".into(),
                match pool {
                    Some(p) => Json::Obj(vec![
                        ("workers".into(), Json::int(p.workers)),
                        ("max_conns".into(), Json::int(p.max_conns)),
                        ("inflight_budget".into(), Json::int(p.inflight_budget)),
                        ("batch_max".into(), Json::int(p.batch_max)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "inflight".into(),
                Json::int(snap.gauge(&serving("inflight"))),
            ),
            (
                "queue_depth".into(),
                Json::int(snap.gauge(&serving("queue_depth"))),
            ),
            (
                "active_conns".into(),
                Json::int(snap.gauge(&serving("active_conns"))),
            ),
            (
                "requests".into(),
                Json::int(snap.counter(&serving("requests"))),
            ),
            (
                "batches".into(),
                Json::int(snap.counter(&serving("batches"))),
            ),
            (
                "batched_requests".into(),
                Json::int(snap.counter(&serving("batched_requests"))),
            ),
            (
                "shed_requests".into(),
                Json::int(snap.counter(&serving("shed_requests"))),
            ),
            (
                "shed_conns".into(),
                Json::int(snap.counter(&serving("shed_conns"))),
            ),
            (
                "conn".into(),
                Json::Obj(vec![
                    (
                        "accepted".into(),
                        Json::int(snap.counter(&conn("accepted"))),
                    ),
                    ("closed".into(), Json::int(snap.counter(&conn("closed")))),
                    (
                        "accept_errors".into(),
                        Json::int(snap.counter(&conn("accept_errors"))),
                    ),
                    (
                        "read_errors".into(),
                        Json::int(snap.counter(&conn("read_errors"))),
                    ),
                    (
                        "write_errors".into(),
                        Json::int(snap.counter(&conn("write_errors"))),
                    ),
                ]),
            ),
        ])
    }

    /// The status response's `live` section: sliding-window rates and
    /// quantiles for every windowed histogram, the effective
    /// slow-trace threshold, tail-retention counts, span loss, and the
    /// access log's health — the "right now" view next to the
    /// cumulative `metrics` section.
    fn live_section(&self) -> Json {
        let now = self.clock.monotonic_micros();
        let mut hists: Vec<(String, Json)> = Vec::new();
        if let Some(windows) = self.obs.windows() {
            for name in windows.names() {
                let Some(w) = windows.get(&name) else {
                    continue;
                };
                let s60 = w.snapshot(now, 60_000_000);
                hists.push((
                    name,
                    Json::Obj(vec![
                        ("rate_1s".into(), Json::Float(w.rate(now, 1_000_000))),
                        ("rate_10s".into(), Json::Float(w.rate(now, 10_000_000))),
                        ("rate_60s".into(), Json::Float(w.rate(now, 60_000_000))),
                        ("count_60s".into(), Json::int(s60.count)),
                        ("p50_60s".into(), Json::int(s60.quantile(0.5))),
                        ("p99_60s".into(), Json::int(s60.quantile(0.99))),
                        ("p999_60s".into(), Json::int(s60.quantile(0.999))),
                    ]),
                ));
            }
        }
        let (slow, errors, shed) = self.sampler.retained_counts();
        Json::Obj(vec![
            (
                "window".into(),
                match self.obs.windows().map(|w| w.config()) {
                    Some(c) => Json::Obj(vec![
                        ("bucket_micros".into(), Json::int(c.bucket_micros)),
                        ("buckets".into(), Json::int(c.buckets)),
                    ]),
                    None => Json::Null,
                },
            ),
            ("histograms".into(), Json::Obj(hists)),
            (
                "slow_trace_threshold_micros".into(),
                match self.slow_threshold() {
                    Some(t) => Json::int(t),
                    None => Json::Null,
                },
            ),
            (
                "traces".into(),
                Json::Obj(vec![
                    ("slow".into(), Json::int(slow)),
                    ("errors".into(), Json::int(errors)),
                    ("shed".into(), Json::int(shed)),
                    ("evicted".into(), Json::int(self.sampler.evicted())),
                ]),
            ),
            ("dropped_spans".into(), Json::int(self.obs.dropped_spans())),
            (
                "access_log".into(),
                match &self.access_log {
                    Some(log) => {
                        let s = log.stats();
                        Json::Obj(vec![
                            ("path".into(), Json::str(log.path().display().to_string())),
                            ("written".into(), Json::int(s.written)),
                            ("rotations".into(), Json::int(s.rotations)),
                            ("dropped".into(), Json::int(s.dropped)),
                            ("current_bytes".into(), Json::int(s.current_bytes)),
                        ])
                    }
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The status response's `metrics` section: per-domain extract
    /// latency and drift-score histograms (read back out of the obs
    /// registry), wrapper revisions, annotation-memo hit rate, and
    /// request counters.
    fn metrics_section(&self) -> Json {
        let snap = self.obs.snapshot();
        let mut latency: Vec<(String, Json)> = Vec::new();
        let mut drift: Vec<(String, Json)> = Vec::new();
        for (name, h) in &snap.histograms {
            if let Some(domain) = name.strip_prefix("objectrunner.serve.extract.latency_micros.") {
                latency.push((domain.to_owned(), histogram_json(h)));
            } else if let Some(domain) = name.strip_prefix("objectrunner.serve.drift.score_milli.")
            {
                drift.push((domain.to_owned(), histogram_json(h)));
            }
        }
        let revisions = self
            .registry
            .load()
            .1
            .iter()
            .map(|(name, s)| (name.clone(), Json::int(s.snapshot().revision as i64)))
            .collect();
        let (hits, misses) = {
            let cache = self.annotators.lock().expect("annotator cache poisoned");
            cache.values().fold((0u64, 0u64), |(h, m), a| {
                (h + a.cache_hits(), m + a.cache_misses())
            })
        };
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let requests = ["induce", "extract", "status", "trace"]
            .iter()
            .map(|&c| {
                (
                    c.to_owned(),
                    Json::int(snap.counter(&format!("objectrunner.serve.requests.{c}"))),
                )
            })
            .collect();
        Json::Obj(vec![
            ("extract_latency_micros".into(), Json::Obj(latency)),
            ("drift_score_milli".into(), Json::Obj(drift)),
            ("revisions".into(), Json::Obj(revisions)),
            (
                "annotation_memo".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::int(hits)),
                    ("misses".into(), Json::int(misses)),
                    ("hit_rate".into(), Json::Float(hit_rate)),
                ]),
            ),
            ("requests".into(), Json::Obj(requests)),
            (
                "reinductions".into(),
                Json::int(snap.counter("objectrunner.serve.reinductions")),
            ),
            (
                "repair".into(),
                Json::Obj(vec![
                    (
                        "attempts".into(),
                        Json::int(snap.counter("objectrunner.serve.repair.attempts")),
                    ),
                    (
                        "successes".into(),
                        Json::int(snap.counter("objectrunner.serve.repair.successes")),
                    ),
                    (
                        "fallbacks".into(),
                        Json::int(snap.counter("objectrunner.serve.repair.fallbacks")),
                    ),
                ]),
            ),
        ])
    }

    /// `{"cmd":"trace","limit":N}` — the span trees of the last `N`
    /// requests (default 3) still in the observability buffer. With
    /// `"kind":"slow"|"errors"|"shed"` the dump reads the tail-sampled
    /// retention rings instead: the span trees of the last qualifying
    /// requests, held even after the main buffer has wrapped. Spans
    /// are rendered in `(trace, id)` order, parents before children.
    fn trace_dump(&self, req: &Json) -> Json {
        let limit = req
            .get("limit")
            .and_then(Json::as_usize)
            .unwrap_or(3)
            .max(1);
        if let Some(kind) = req.get("kind").and_then(Json::as_str) {
            let Some(kind) = TraceKind::parse(kind) else {
                return err(&format!("unknown trace kind '{kind}' (slow|errors|shed)"));
            };
            let dumped = self.sampler.dump(kind, limit);
            let (slow, errors, shed) = self.sampler.retained_counts();
            let retained = match kind {
                TraceKind::Slow => slow,
                TraceKind::Error => errors,
                TraceKind::Shed => shed,
            };
            let traces: Vec<Json> = dumped
                .iter()
                .map(|t| {
                    Json::Obj(vec![
                        ("trace".into(), Json::int(t.trace)),
                        ("kind".into(), Json::str(t.kind.as_str())),
                        ("latency_micros".into(), Json::int(t.latency_micros)),
                        ("wall_unix_micros".into(), Json::int(t.wall_unix_micros)),
                        ("truncated".into(), Json::Bool(t.truncated)),
                        (
                            "spans".into(),
                            Json::Arr(t.spans.iter().map(span_json).collect()),
                        ),
                    ])
                })
                .collect();
            return Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("cmd".into(), Json::str("trace")),
                ("kind".into(), Json::str(kind.as_str())),
                ("retained".into(), Json::int(retained)),
                ("evicted".into(), Json::int(self.sampler.evicted())),
                ("traces".into(), Json::Arr(traces)),
                ("dropped_spans".into(), Json::int(self.obs.dropped_spans())),
            ]);
        }
        let spans = self.obs.spans();
        // `spans` is sorted by (trace, id) and trace ids are allocated
        // in request order, so the last distinct ids are the most
        // recent requests.
        let mut traces: Vec<u64> = Vec::new();
        for s in &spans {
            if traces.last() != Some(&s.trace) {
                traces.push(s.trace);
            }
        }
        let keep = &traces[traces.len().saturating_sub(limit)..];
        let rendered: Vec<Json> = spans
            .iter()
            .filter(|s| keep.contains(&s.trace))
            .map(span_json)
            .collect();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("cmd".into(), Json::str("trace")),
            ("enabled".into(), Json::Bool(self.obs.is_enabled())),
            ("traces".into(), Json::int(keep.len())),
            ("spans".into(), Json::Arr(rendered)),
            ("dropped_spans".into(), Json::int(self.obs.dropped_spans())),
        ])
    }

    /// `{"cmd":"query", …}` — run a [`Query`] against the object
    /// store; see `objstore::query` for the filter grammar. Hits are
    /// rendered with per-attribute provenance; `next_cursor` (when
    /// present) feeds the next page's `"cursor"`.
    fn query_cmd(&self, req: &Json, span: &Span) -> Json {
        let Some(store) = &self.objstore else {
            return err("no object store attached (start with --object-store DIR)");
        };
        let q = match Query::from_json(req) {
            Ok(q) => q,
            Err(e) => return err(&format!("bad query: {e}")),
        };
        let trace_context = Some(span.context()).filter(|_| span.is_enabled());
        let result = store
            .read()
            .expect("object store poisoned")
            .query(&q, trace_context);
        match result {
            Ok(result) => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("cmd".into(), Json::str("query")),
                ("count".into(), Json::int(result.hits.len())),
                (
                    "hits".into(),
                    Json::Arr(
                        result
                            .hits
                            .iter()
                            .map(|h| record_json(h, &q.select))
                            .collect(),
                    ),
                ),
                (
                    "next_cursor".into(),
                    match result.next_cursor {
                        Some(c) => Json::str(c),
                        None => Json::Null,
                    },
                ),
                ("scanned".into(), Json::int(result.scanned)),
            ]),
            Err(e) => err(&format!("query: {e}")),
        }
    }

    /// `{"cmd":"get","key":K}` — fetch one object (with provenance)
    /// by its identity key.
    fn get_cmd(&self, req: &Json) -> Json {
        let Some(store) = &self.objstore else {
            return err("no object store attached (start with --object-store DIR)");
        };
        let Some(key) = req.get("key").and_then(Json::as_str) else {
            return err("missing 'key'");
        };
        match store.read().expect("object store poisoned").get(key) {
            Ok(hit) => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("cmd".into(), Json::str("get")),
                ("found".into(), Json::Bool(hit.is_some())),
                (
                    "hit".into(),
                    match &hit {
                        Some(record) => record_json(record, &[]),
                        None => Json::Null,
                    },
                ),
            ]),
            Err(e) => err(&format!("get: {e}")),
        }
    }

    /// `{"cmd":"store-status"}` — segment/object/byte counts and the
    /// cumulative dedup counters of the object store.
    fn store_status_cmd(&self) -> Json {
        let Some(store) = &self.objstore else {
            return err("no object store attached (start with --object-store DIR)");
        };
        let mut pairs = vec![
            ("ok".into(), Json::Bool(true)),
            ("cmd".into(), Json::str("store-status")),
        ];
        if let Json::Obj(section) =
            store_status_json(&store.read().expect("object store poisoned").status())
        {
            pairs.extend(section);
        }
        Json::Obj(pairs)
    }

    /// `{"cmd":"compact"}` — rewrite live records into a fresh
    /// generation and drop superseded versions.
    fn compact_cmd(&self, span: &Span) -> Json {
        let now = self.clock.wall_unix_micros();
        let trace_context = Some(span.context()).filter(|_| span.is_enabled());
        let Some(store) = &self.objstore else {
            return err("no object store attached (start with --object-store DIR)");
        };
        let result = store
            .write()
            .expect("object store poisoned")
            .compact(now, trace_context);
        match result {
            Ok(r) => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("cmd".into(), Json::str("compact")),
                ("live_records".into(), Json::int(r.live_records)),
                ("dropped_records".into(), Json::int(r.dropped_records)),
                ("segments_before".into(), Json::int(r.segments_before)),
                ("segments_after".into(), Json::int(r.segments_after)),
                ("bytes_before".into(), Json::int(r.bytes_before)),
                ("bytes_after".into(), Json::int(r.bytes_after)),
            ]),
            Err(e) => err(&format!("compact: {e}")),
        }
    }
}

/// Histogram snapshot as JSON (fixed key order).
fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::int(h.count)),
        ("sum".into(), Json::int(h.sum)),
        ("mean".into(), Json::Float(h.mean())),
        (
            "bounds".into(),
            Json::Arr(h.bounds.iter().map(|&b| Json::int(b)).collect()),
        ),
        (
            "counts".into(),
            Json::Arr(h.counts.iter().map(|&c| Json::int(c)).collect()),
        ),
    ])
}

/// One finished span as JSON, matching the JSONL exporter's field
/// names so `trace` output joins against `obs_check` tooling.
fn span_json(s: &SpanRecord) -> Json {
    let attrs = s
        .attrs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), Json::Raw(v.render_json())))
        .collect();
    Json::Obj(vec![
        ("trace".into(), Json::int(s.trace)),
        ("id".into(), Json::int(s.id)),
        ("parent".into(), Json::int(s.parent)),
        ("name".into(), Json::str(s.name)),
        ("start_us".into(), Json::int(s.start_micros)),
        ("dur_us".into(), Json::int(s.dur_micros)),
        ("cpu_us".into(), Json::int(s.cpu_micros)),
        ("attrs".into(), Json::Obj(attrs)),
    ])
}

/// A [`StoreStatus`] as JSON (fixed key order) — shared by the
/// `store-status` command and the `status` response's `object_store`
/// section.
fn store_status_json(s: &StoreStatus) -> Json {
    let per_domain = s
        .per_domain
        .iter()
        .map(|(d, &n)| (d.clone(), Json::int(n)))
        .collect();
    // Of the sightings that collided with a stored object, the
    // fraction that contributed new attributes (cross-source gap
    // filling actually paying off).
    let fusion_rate = if s.duplicates == 0 {
        0.0
    } else {
        s.fused as f64 / s.duplicates as f64
    };
    Json::Obj(vec![
        ("generation".into(), Json::int(s.generation)),
        ("segments".into(), Json::int(s.segments)),
        ("live_objects".into(), Json::int(s.live_objects)),
        ("dead_records".into(), Json::int(s.dead_records)),
        ("bytes".into(), Json::int(s.bytes)),
        ("per_domain".into(), Json::Obj(per_domain)),
        ("ingested".into(), Json::int(s.ingested)),
        ("new_objects".into(), Json::int(s.new_objects)),
        ("fused".into(), Json::int(s.fused)),
        ("duplicates".into(), Json::int(s.duplicates)),
        ("skipped".into(), Json::int(s.skipped)),
        ("fusion_rate".into(), Json::Float(fusion_rate)),
        ("compactions".into(), Json::int(s.compactions)),
        (
            "last_compaction_unix_micros".into(),
            match s.last_compaction_unix_micros {
                Some(t) => Json::int(t),
                None => Json::Null,
            },
        ),
    ])
}

/// Resolve a request's page input: inline `"pages"` array or a
/// `"dir"` of `*.html` files in lexicographic order.
fn request_pages(req: &Json) -> Result<Vec<String>, String> {
    Ok(request_named_pages(req)?
        .into_iter()
        .map(|(_, html)| html)
        .collect())
}

/// Like [`request_pages`], but each page comes with a stable id the
/// object store uses as provenance: the file stem for `"dir"` input,
/// `page-<index>` for inline pages.
pub(crate) fn request_named_pages(req: &Json) -> Result<Vec<(String, String)>, String> {
    if let Some(arr) = req.get("pages").and_then(Json::as_arr) {
        return arr
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.as_str()
                    .map(|html| (format!("page-{i:04}"), html.to_owned()))
                    .ok_or_else(|| "'pages' holds a non-string".to_owned())
            })
            .collect();
    }
    if let Some(dir) = req.get("dir").and_then(Json::as_str) {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("dir '{dir}': {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "html"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("dir '{dir}' holds no *.html files"));
        }
        return files
            .iter()
            .map(|p| {
                let name = p
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.display().to_string());
                std::fs::read_to_string(p)
                    .map(|html| (name, html))
                    .map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect();
    }
    Err("missing 'pages' (inline array) or 'dir' (of *.html files)".to_owned())
}
