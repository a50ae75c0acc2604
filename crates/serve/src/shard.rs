//! Per-source domain shards — the serving core's unit of isolation.
//!
//! Every source (one wrapper, one domain) is a [`SourceShard`]: an
//! immutable wrapper snapshot behind a [`Slot`] (lock-free reads, see
//! `slot.rs`) plus a mutex-guarded mutation lane ([`ShardMut`]) for
//! everything that changes — drift bookkeeping, the suspect-page
//! buffer, lifecycle state, repair and re-induction. The shards hang
//! off a registry map that is itself a `Slot`, so the hot path of a
//! cached `extract` — registry lookup, wrapper snapshot, the per-page
//! extraction chain, drift scoring — touches **no lock at all**:
//!
//! ```text
//!   request ──> registry Slot ──> SourceShard ──> wrapper Slot ──> extract_only
//!                (atomic load)                     (atomic load)   (one thread)
//!                                                      │
//!                          bookkeeping / repair ──> ShardMut lane (per-source mutex)
//! ```
//!
//! Mutation serializes **per source**: two requests drifting the same
//! wrapper queue on that shard's lane, while requests for any other
//! source — any other domain — never contend. A repair or
//! re-induction publishes its new wrapper by storing a fresh `Arc`
//! into the slot and bumping the version stamp; in-flight extractions
//! keep their old snapshot alive until they finish, and every later
//! request picks up the new revision with a single atomic load.
//!
//! Batched extraction: when the connection layer hands over several
//! pipelined `extract` requests against the same source, they share one
//! registry lookup and one wrapper snapshot, and run in request order
//! on the pool worker that took them — each request one call of the
//! extraction driver (`extract_only_with` on one thread) followed by its
//! drift bookkeeping through the mutation lane. If request *i* triggers
//! a repair, requests *i+1…* see the lane's version stamp move and
//! re-extract against the new wrapper — so the batch's responses are
//! byte-identical to the serial order.

use crate::service::{err, instance_json, ServiceShared, REQUEST_THREADS};
use crate::slot::{Slot, SlotReader};
use objectrunner_core::matching::drift_score;
use objectrunner_core::pipeline::{extract_only_with, ExtractOutcome};
use objectrunner_core::wrapper::{repair_wrapper, RepairConfig};
use objectrunner_objstore::{IngestContext, IngestObject};
use objectrunner_obs::{Span, DRIFT_BUCKETS_MILLI, LATENCY_BUCKETS_MICROS};
use objectrunner_store::{load_file, Json, RepairProvenance, StoredWrapper};
use objectrunner_webgen::Domain;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lifecycle state of a served wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapperState {
    /// Extracting within drift tolerance.
    Fresh,
    /// Drift crossed the threshold; awaiting enough buffered pages.
    Stale,
    /// Patched by tree-diff repair since it was last stale — the
    /// cheap path: no induction stages ran.
    Repaired,
    /// Re-induced from drifted pages since it was last stale.
    Reinduced,
}

impl WrapperState {
    pub fn as_str(self) -> &'static str {
        match self {
            WrapperState::Fresh => "fresh",
            WrapperState::Stale => "stale",
            WrapperState::Repaired => "repaired",
            WrapperState::Reinduced => "reinduced",
        }
    }
}

/// The registry map: source name → shard. Readers hold an immutable
/// snapshot; inserting a source publishes a new map.
pub(crate) type SourceMap = BTreeMap<String, Arc<SourceShard>>;

/// Everything about one source that mutates — guarded by the shard's
/// mutation lane.
pub(crate) struct ShardMut {
    pub state: WrapperState,
    pub extracts: u64,
    pub cache_hits: u64,
    pub drift_events: u64,
    /// Recent drifted pages: (html, drift score), bounded.
    pub buffer: VecDeque<(String, f64)>,
    /// Human-readable lifecycle transitions, oldest first.
    pub log: Vec<String>,
    /// Wall clock (Unix micros) of the last request touching this
    /// source; 0 until first touched.
    pub last_activity_wall: u64,
    /// Monotonic micros of the last request touching this source;
    /// paired with "now" to report idle time without wall-clock jumps.
    pub last_activity_mono: u64,
}

impl ShardMut {
    fn new() -> ShardMut {
        ShardMut {
            state: WrapperState::Fresh,
            extracts: 0,
            cache_hits: 0,
            drift_events: 0,
            buffer: VecDeque::new(),
            log: Vec::new(),
            last_activity_wall: 0,
            last_activity_mono: 0,
        }
    }

    fn touch(&mut self, shared: &ServiceShared) {
        self.last_activity_wall = shared.clock.wall_unix_micros();
        self.last_activity_mono = shared.clock.monotonic_micros();
    }
}

/// One served source: lock-free wrapper snapshot + serialized
/// mutation lane.
pub struct SourceShard {
    pub name: String,
    pub(crate) slot: Slot<StoredWrapper>,
    pub(crate) state: Mutex<ShardMut>,
}

impl SourceShard {
    pub(crate) fn new(name: &str, stored: StoredWrapper) -> Arc<SourceShard> {
        Arc::new(SourceShard {
            name: name.to_owned(),
            slot: Slot::new(Arc::new(stored)),
            state: Mutex::new(ShardMut::new()),
        })
    }

    pub(crate) fn lane(&self) -> MutexGuard<'_, ShardMut> {
        self.state.lock().expect("shard lane poisoned")
    }

    /// The current wrapper snapshot, bypassing any reader cache (cold
    /// paths: status rendering, tests).
    pub(crate) fn snapshot(&self) -> Arc<StoredWrapper> {
        self.slot.load().1
    }
}

/// Per-thread reader-side caches: the registry snapshot and one
/// wrapper snapshot per source. Each pool worker (and the stdin loop)
/// owns one, so steady-state reads never share mutable state.
#[derive(Default)]
pub struct ReaderCache {
    registry: SlotReader<SourceMap>,
    wrappers: BTreeMap<String, SlotReader<StoredWrapper>>,
}

impl ReaderCache {
    pub fn new() -> ReaderCache {
        ReaderCache::default()
    }

    pub(crate) fn sources(&mut self, shared: &ServiceShared) -> Arc<SourceMap> {
        self.registry.get(&shared.registry)
    }

    pub(crate) fn wrapper(&mut self, shard: &SourceShard) -> (u64, Arc<StoredWrapper>) {
        self.wrappers
            .entry(shard.name.clone())
            .or_default()
            .get_versioned(&shard.slot)
    }
}

/// Ensure a source is registered, loading its wrapper from the store
/// directory on first use (daemon restart survival).
pub(crate) fn lookup_or_warm(
    shared: &ServiceShared,
    cache: &mut ReaderCache,
    source: &str,
) -> Result<Arc<SourceShard>, String> {
    if let Some(shard) = cache.sources(shared).get(source) {
        return Ok(Arc::clone(shard));
    }
    // Registry writes serialize; re-check under the write lock so two
    // racing warms insert once.
    let _guard = shared
        .registry_write
        .lock()
        .expect("registry write poisoned");
    if let Some(shard) = cache.sources(shared).get(source) {
        return Ok(Arc::clone(shard));
    }
    let path = shared.wrapper_path(source);
    if !path.exists() {
        return Err(format!("unknown source '{source}' (no wrapper stored)"));
    }
    let stored = load_file(&path).map_err(|e| format!("load: {e}"))?;
    let shard = SourceShard::new(source, stored);
    {
        let mut lane = shard.lane();
        let revision = shard.snapshot().revision;
        lane.log.push(format!(
            "loaded: revision {} from {}",
            revision,
            path.display()
        ));
    }
    let inserted = Arc::clone(&shard);
    shared.registry.update(|map| {
        let mut next = map.clone();
        next.insert(source.to_owned(), Arc::clone(&inserted));
        Arc::new(next)
    });
    Ok(shard)
}

/// Register (or replace) a source after a successful induction. A
/// re-induced source keeps its shard identity — readers' cached
/// `SlotReader`s stay valid — but its counters, buffer and log reset,
/// matching a freshly induced source. Induction is rare, so the whole
/// install runs under the registry write guard.
pub(crate) fn install_induced(
    shared: &ServiceShared,
    source: &str,
    stored: StoredWrapper,
    log_line: String,
) {
    let _guard = shared
        .registry_write
        .lock()
        .expect("registry write poisoned");
    if let Some(shard) = shared.registry.load().1.get(source) {
        let mut lane = shard.lane();
        *lane = ShardMut::new();
        lane.touch(shared);
        lane.log.push(log_line);
        shard.slot.store(Arc::new(stored));
        return;
    }
    let shard = SourceShard::new(source, stored);
    {
        let mut lane = shard.lane();
        lane.touch(shared);
        lane.log.push(log_line);
    }
    shared.registry.update(|map| {
        let mut next = map.clone();
        next.insert(source.to_owned(), Arc::clone(&shard));
        Arc::new(next)
    });
}

/// One parsed-and-validated extract request, ready to run.
struct PendingExtract {
    names: Vec<String>,
    pages: Vec<String>,
}

/// Handle a run of `extract` requests against the same source as one
/// batch: one registry lookup and one wrapper snapshot, then each
/// request's extraction and drift bookkeeping in request order, all on
/// the calling thread. `reqs.len() == 1` is the plain serial path.
pub(crate) fn extract_batch(
    shared: &ServiceShared,
    cache: &mut ReaderCache,
    reqs: &[&Json],
    spans: &[Span],
    queue_wait_micros: Option<u64>,
) -> Vec<Json> {
    let started = shared.clock.monotonic_micros();
    let source = match reqs[0].get("source").and_then(Json::as_str) {
        Some(s) => s.to_owned(),
        None => return reqs.iter().map(|_| err("missing 'source'")).collect(),
    };

    // Resolve page input per request; a request with bad input gets
    // its error response without poisoning its batch mates.
    let mut pending: Vec<Result<PendingExtract, String>> = Vec::with_capacity(reqs.len());
    for req in reqs {
        pending.push(crate::service::request_named_pages(req).and_then(|named| {
            if named.is_empty() {
                return Err("no pages".to_owned());
            }
            let mut names = Vec::with_capacity(named.len());
            let mut pages = Vec::with_capacity(named.len());
            for (name, html) in named {
                names.push(name);
                pages.push(html);
            }
            Ok(PendingExtract { names, pages })
        }));
    }

    let shard = match lookup_or_warm(shared, cache, &source) {
        Ok(s) => s,
        Err(e) => return reqs.iter().map(|_| err(&e)).collect(),
    };
    let (snap_version, snap) = cache.wrapper(&shard);

    pending
        .into_iter()
        .zip(spans)
        .map(|(p, span)| match p {
            Err(e) => err(&e),
            Ok(p) => {
                let outcome = extract_only_with(
                    &snap.wrapper,
                    snap.main_block.as_ref(),
                    &snap.clean,
                    &p.pages,
                    REQUEST_THREADS,
                    &shared.obs,
                    Some(span.context()).filter(|_| span.is_enabled()),
                    queue_wait_micros,
                );
                process_request(
                    shared,
                    &shard,
                    &source,
                    p,
                    snap_version,
                    Arc::clone(&snap),
                    outcome,
                    span,
                    started,
                )
            }
        })
        .collect()
}

/// Drift-score every prepared document of `outcome` against the
/// wrapper that extracted it.
fn score_outcome(stored: &StoredWrapper, outcome: &ExtractOutcome) -> Vec<f64> {
    outcome
        .docs
        .iter()
        .map(|doc| drift_score(&stored.wrapper.template, &stored.wrapper.mapping, doc).score())
        .collect()
}

/// The per-request tail of a cached extraction: drift bookkeeping,
/// the staleness triggers, repair / re-induction, the durable sink,
/// and the response — everything the serial daemon did, serialized
/// per source through the shard lane.
#[allow(clippy::too_many_arguments)]
fn process_request(
    shared: &ServiceShared,
    shard: &Arc<SourceShard>,
    source: &str,
    req: PendingExtract,
    snap_version: u64,
    mut snap: Arc<StoredWrapper>,
    outcome: ExtractOutcome,
    span: &Span,
    started: u64,
) -> Json {
    let threshold = shared.config.drift_threshold;
    let trace_context = Some(span.context()).filter(|_| span.is_enabled());
    let PendingExtract { names, pages } = req;

    // Take the mutation lane. Repairs happen only under this lock, so
    // once held, the snapshot version can no longer move.
    let mut lane = shard.lane();
    let mut outcome = if shard.slot.version() == snap_version {
        outcome
    } else {
        // A batch mate (or a concurrent connection) repaired the
        // wrapper after this request's extraction ran. Replay
        // against the current revision — exactly what the serial
        // order would have produced.
        let (_, fresh) = shard.slot.load();
        snap = fresh;
        extract_only_with(
            &snap.wrapper,
            snap.main_block.as_ref(),
            &snap.clean,
            &pages,
            REQUEST_THREADS,
            &shared.obs,
            trace_context,
            None,
        )
    };
    let domain_name = snap.domain.clone();
    lane.extracts += 1;
    lane.cache_hits += 1;
    lane.touch(shared);

    // Score template drift on the prepared documents.
    let scores = score_outcome(&snap, &outcome);
    let mean_drift = scores.iter().sum::<f64>() / scores.len() as f64;

    // Per-page drift distribution, in thousandths so the integer
    // histogram resolves the 0..=1 score range.
    for &score in &scores {
        shared.obs.histogram_record(
            &format!("objectrunner.serve.drift.score_milli.{domain_name}"),
            &DRIFT_BUCKETS_MILLI,
            (score * 1000.0).round() as u64,
        );
    }

    // Second staleness signal: the silent miss. Record-level markup
    // can change without touching the separator slots the drift score
    // watches — pages then score clean but extract nothing. A batch
    // whose empty-page fraction crosses the threshold is as stale as
    // a drifted one.
    let empty_pages = outcome.per_page.iter().filter(|p| p.is_empty()).count();
    let empty_fraction = empty_pages as f64 / outcome.per_page.len() as f64;
    let silent_miss =
        mean_drift < threshold && empty_fraction >= shared.config.empty_page_threshold;

    // Buffer the suspect pages (bounded, oldest evicted): drifted
    // pages always, and the zero-extraction pages of a silent-miss
    // batch — those are the only evidence of the new template.
    for (i, (page, &score)) in pages.iter().zip(scores.iter()).enumerate() {
        if score >= threshold || (silent_miss && outcome.per_page[i].is_empty()) {
            if lane.buffer.len() == shared.config.buffer_pages {
                lane.buffer.pop_front();
            }
            lane.buffer.push_back((page.clone(), score));
        }
    }

    if lane.state != WrapperState::Stale {
        if mean_drift >= threshold {
            lane.drift_events += 1;
            lane.state = WrapperState::Stale;
            shared
                .obs
                .counter_add("objectrunner.serve.drift.stale_transitions", 1);
            lane.log.push(format!(
                "stale: mean drift {mean_drift:.2} >= {threshold:.2} on revision {}",
                snap.revision
            ));
        } else if silent_miss {
            lane.drift_events += 1;
            lane.state = WrapperState::Stale;
            shared
                .obs
                .counter_add("objectrunner.serve.drift.silent_miss_transitions", 1);
            lane.log.push(format!(
                "stale (silent miss): {empty_pages}/{} pages extracted nothing at \
                 drift {mean_drift:.2} on revision {}",
                outcome.per_page.len(),
                snap.revision
            ));
        }
    }

    let mut reinduced = false;
    let mut repaired_now = false;
    let mut response_drift = mean_drift;
    if lane.state == WrapperState::Stale && lane.buffer.len() >= shared.config.min_reinduce_pages {
        let buffered: Vec<String> = lane.buffer.iter().map(|(p, _)| p.clone()).collect();
        let domain = match Domain::by_name(&snap.domain) {
            Some(d) => d,
            None => return err(&format!("stored domain '{}' unknown", snap.domain)),
        };
        let revision = snap.revision + 1;
        let stored_old: &StoredWrapper = &snap;

        // Repair first: patch the stored wrapper through a tree diff
        // against the drifted template — no induction stages. Only
        // when the patch is declined (container redesign, a lost gap,
        // coverage under the floor) does the full re-induction
        // pipeline run.
        shared
            .obs
            .counter_add("objectrunner.serve.repair.attempts", 1);
        let mut repair_span = match trace_context {
            Some((t, p)) => shared.obs.span_in(t, p, "serve.repair"),
            None => shared.obs.trace("serve.repair"),
        };
        let repair_context = Some(repair_span.context()).filter(|_| repair_span.is_enabled());
        let prepared = extract_only_with(
            &stored_old.wrapper,
            stored_old.main_block.as_ref(),
            &stored_old.clean,
            &buffered,
            REQUEST_THREADS,
            &shared.obs,
            repair_context,
            None,
        );
        let repair_cfg = RepairConfig {
            coverage_floor: shared.config.repair_floor,
            ..RepairConfig::default()
        };
        let repair = repair_wrapper(
            &stored_old.wrapper,
            &stored_old.sod,
            &prepared.docs,
            &repair_cfg,
        );
        match &repair {
            Ok(r) => {
                repair_span.attr_str("outcome", "repaired");
                repair_span.attr_f64("coverage", r.report.coverage);
                repair_span.attr_u64("remapped_paths", r.report.remapped_paths as u64);
            }
            Err(e) => {
                repair_span.attr_str("outcome", "declined");
                repair_span.attr_str("reason", &e.to_string());
            }
        }
        repair_span.finish();

        let mut decline_note: Option<String> = None;
        let attempt: Result<(StoredWrapper, String, WrapperState), String> = match repair {
            Ok(r) => {
                shared
                    .obs
                    .counter_add("objectrunner.serve.repair.successes", 1);
                let s = r.report.summary;
                let stored = StoredWrapper {
                    revision,
                    wrapper: r.wrapper,
                    repair: Some(RepairProvenance {
                        repaired_from: stored_old.revision,
                        matched_exact: s.matched_exact,
                        matched_container: s.matched_container,
                        unmatched_old: s.unmatched_old,
                        unmatched_new: s.unmatched_new,
                    }),
                    ..stored_old.clone()
                };
                let line = format!(
                    "repaired: revision {revision} from {} buffered pages \
                     ({} exact + {} container node matches, {} paths remapped, \
                     coverage {:.2})",
                    buffered.len(),
                    s.matched_exact,
                    s.matched_container,
                    r.report.remapped_paths,
                    r.report.coverage,
                );
                Ok((stored, line, WrapperState::Repaired))
            }
            Err(reason) => {
                shared
                    .obs
                    .counter_add("objectrunner.serve.repair.fallbacks", 1);
                decline_note = Some(format!("repair declined ({reason}); re-inducing"));
                shared
                    .induce_wrapper(source, domain, revision, &buffered, span)
                    .map(|(stored, _, _)| {
                        shared.obs.counter_add("objectrunner.serve.reinductions", 1);
                        let line = format!(
                            "reinduced: revision {revision} from {} buffered pages",
                            buffered.len()
                        );
                        (stored, line, WrapperState::Reinduced)
                    })
            }
        };

        match attempt {
            Ok((stored, line, new_state)) => {
                if let Err(e) = shared.persist(&stored) {
                    return err(&e);
                }
                shared.obs.gauge_set(
                    &format!("objectrunner.serve.revision.{source}"),
                    revision as i64,
                );
                if let Some(note) = decline_note.take() {
                    lane.log.push(note);
                }
                // Publish the recovered wrapper: readers pick the new
                // revision up with their next atomic version check.
                snap = Arc::new(stored);
                shard.slot.store(Arc::clone(&snap));
                lane.state = new_state;
                lane.buffer.clear();
                lane.log.push(line);
                reinduced = new_state == WrapperState::Reinduced;
                repaired_now = new_state == WrapperState::Repaired;
                // Replay the batch through the patched wrapper.
                outcome = extract_only_with(
                    &snap.wrapper,
                    snap.main_block.as_ref(),
                    &snap.clean,
                    &pages,
                    REQUEST_THREADS,
                    &shared.obs,
                    trace_context,
                    None,
                );
                let replay = score_outcome(&snap, &outcome);
                response_drift = replay.iter().sum::<f64>() / replay.len() as f64;
            }
            Err(e) => {
                if let Some(note) = decline_note.take() {
                    lane.log.push(note);
                }
                lane.log
                    .push(format!("re-induction failed (still stale): {e}"));
            }
        }
    }
    let final_state = lane.state;
    drop(lane);

    let latency = shared.clock.monotonic_micros().saturating_sub(started);
    shared.obs.histogram_record(
        &format!("objectrunner.serve.extract.latency_micros.{domain_name}"),
        &LATENCY_BUCKETS_MICROS,
        latency,
    );

    // Durable sink: every object of the final (post-repair-replay)
    // batch flows through dedup into the store, tagged with the page
    // it came from and the wrapper revision that extracted it.
    let mut store_section: Option<Json> = None;
    if let Some(store) = &shared.objstore {
        let domain = match Domain::by_name(&snap.domain) {
            Some(d) => d,
            None => return err(&format!("stored domain '{}' unknown", snap.domain)),
        };
        let key_attrs = domain.key_attributes();
        let offers: Vec<IngestObject> = outcome
            .per_page
            .iter()
            .zip(&names)
            .flat_map(|(objects, name)| {
                objects.iter().map(|o| IngestObject {
                    instance: o.clone(),
                    page_id: name.clone(),
                })
            })
            .collect();
        let ctx = IngestContext {
            source,
            domain: domain.name(),
            wrapper_revision: snap.revision,
            repaired_from: snap.repair.as_ref().map(|r| r.repaired_from),
            extracted_unix_micros: shared.clock.wall_unix_micros(),
            confidence: snap.wrapper.quality,
            key_attrs: &key_attrs,
        };
        let result =
            store
                .write()
                .expect("object store poisoned")
                .ingest(offers, &ctx, trace_context);
        match result {
            Ok(r) => {
                store_section = Some(Json::Obj(vec![
                    ("ingested".into(), Json::int(r.ingested)),
                    ("new".into(), Json::int(r.new_objects)),
                    ("fused".into(), Json::int(r.fused)),
                    ("duplicates".into(), Json::int(r.duplicates)),
                    ("skipped".into(), Json::int(r.skipped)),
                ]));
            }
            Err(e) => return err(&format!("object store ingest: {e}")),
        }
    }

    let objects = outcome.objects();
    let mut response = vec![
        ("ok".into(), Json::Bool(true)),
        ("cmd".into(), Json::str("extract")),
        ("source".into(), Json::str(source)),
        ("cache".into(), Json::str("hit")),
        ("revision".into(), Json::int(snap.revision as i64)),
        ("state".into(), Json::str(final_state.as_str())),
        ("drift".into(), Json::Float(response_drift)),
        ("repaired".into(), Json::Bool(repaired_now)),
        ("reinduced".into(), Json::Bool(reinduced)),
        ("count".into(), Json::int(objects.len())),
        (
            "objects".into(),
            Json::Arr(objects.iter().map(|i| instance_json(i)).collect()),
        ),
        ("stats".into(), Json::Raw(outcome.stats.to_json())),
    ];
    if let Some(section) = store_section {
        response.push(("store".into(), section));
    }
    Json::Obj(response)
}
