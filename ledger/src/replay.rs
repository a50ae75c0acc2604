//! The replay half of the traced ledger: the public layer calls a
//! request makes, each timed and wrapped in a span, and the probes that
//! measure the layers a workload's traffic does not reach on that
//! workload's own inputs.

use crate::inputs::{extract_line, generate, Rng, Source};
use crate::{fleet, onboard, stats, Ctx};
use objectrunner_core::annotate::{AnnotatedPage, Annotator};
use objectrunner_core::matching::drift_score;
use objectrunner_core::pipeline::{extract_only, extract_only_with, Pipeline, PipelineConfig};
use objectrunner_core::roles::{differentiate, DiffConfig};
use objectrunner_core::sample::SampleConfig;
use objectrunner_core::template::{build_template, TemplateTree};
use objectrunner_core::tokens::SourceTokens;
use objectrunner_core::treediff::{match_trees, TreeDiffConfig};
use objectrunner_core::wrapper::{repair_wrapper, RepairConfig};
use objectrunner_core::{extract_stream, Stage, StreamConfig, StreamStats};
use objectrunner_html::{clean_document, Document, NodeKind, PageParser};
use objectrunner_knowledge::compiled::MatchScratch;
use objectrunner_objstore::{record_json, IngestContext, IngestObject, ObjectStore, Query};
use objectrunner_obs::{Obs, Span};
use objectrunner_segment::simplify_to_main_block;
use objectrunner_serve::{instance_json, ServeConfig};
use objectrunner_sod::Instance;
use objectrunner_store::{load_file, save_file, Json, StoredWrapper};
use objectrunner_webgen::knowledge::recognizers_for;
use objectrunner_webgen::{Domain, SiteSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sources each probe uses at most.
const PROBE_SOURCES: usize = 4;
/// Pages the stream, observability and tracing probes run over.
pub const PROBE_PAGES: usize = 1200;
/// Cached extracts the request probe replays.
const REQUEST_PROBES: usize = 25;
/// Single-page extractions the executor probe times, per setting.
const SPAWN_PROBES: usize = 200;
/// Alternating rounds of each on/off overhead probe.
const OVERHEAD_ROUNDS: usize = 5;

/// Per-layer time, call counts and samples, with a span per timed
/// call.
pub struct Ledger {
    pub obs: Obs,
    pub time: BTreeMap<&'static str, Duration>,
    /// Calls per timed layer, and the counters the replay keeps
    /// (objects offered and records written by ingest, records scanned
    /// and hits by queries).
    counts: BTreeMap<&'static str, u64>,
    /// Every timed call's duration, for layers reported as quantiles.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub total: Duration,
}

impl Ledger {
    pub fn new(obs: Obs) -> Ledger {
        Ledger {
            obs,
            time: BTreeMap::new(),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
            total: Duration::ZERO,
        }
    }

    pub fn timed<T>(&mut self, parent: &Span, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let span = parent.child(layer);
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        span.finish();
        *self.time.entry(layer).or_default() += took;
        self.add(layer, 1);
        self.samples.entry(layer).or_default().push(stats::ms(took));
        self.total += took;
        out
    }

    pub fn us(&self, layer: &str) -> f64 {
        self.time.get(layer).map_or(0.0, |d| stats::us(*d))
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Mean milliseconds per call.
    pub fn mean_ms(&self, layer: &str) -> f64 {
        self.us(layer) / 1e3 / self.count(layer) as f64
    }

    pub fn quantile_ms(&self, layer: &str, q: f64) -> f64 {
        let s = stats::sorted(self.samples.get(layer).cloned().unwrap_or_default());
        stats::quantile(&s, q)
    }
}

/// A repair the ledger saw, kept for the tree-diff probe.
pub struct RepairCase {
    pub old: StoredWrapper,
    pub docs: Vec<Document>,
}

/// Replays requests as the public layer calls they make.
pub struct Replay {
    /// The daemon's default configuration, which the replay mirrors.
    config: ServeConfig,
    pub ledger: Ledger,
    pub parser: PageParser,
    pub store: PathBuf,
    pub saves: PathBuf,
    pub wrappers: BTreeMap<String, StoredWrapper>,
    pub annotators: BTreeMap<String, Arc<Annotator>>,
    pub objects: Option<ObjectStore>,
    /// (source, domain, objects) of replayed extracts, for the object
    /// store probe.
    pub extracted: Vec<(String, Domain, Vec<Instance>)>,
    /// (annotate, sample, wrap) wall micros and reruns per induction.
    pub inductions: Vec<([f64; 3], f64)>,
    pub repairs: Vec<RepairCase>,
    pub declined: usize,
    pub page_bytes: usize,
    pub pages: usize,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub now_micros: u64,
}

impl Replay {
    pub fn new(ctx: &Ctx, obs: Obs, store: &Path, objects: bool) -> Result<Replay, String> {
        let saves = ctx.path("replay-saves");
        std::fs::create_dir_all(&saves).map_err(|e| format!("{}: {e}", saves.display()))?;
        let objects = match objects {
            true => Some(
                ObjectStore::open(ctx.path("replay-objects"), Obs::disabled())
                    .map_err(|e| format!("replay object store: {e}"))?,
            ),
            false => None,
        };
        Ok(Replay {
            config: ServeConfig::default(),
            ledger: Ledger::new(obs),
            parser: PageParser::new(),
            store: store.to_path_buf(),
            saves,
            wrappers: BTreeMap::new(),
            annotators: BTreeMap::new(),
            objects,
            extracted: Vec::new(),
            inductions: Vec::new(),
            repairs: Vec::new(),
            declined: 0,
            page_bytes: 0,
            pages: 0,
            request_bytes: 0,
            response_bytes: 0,
            now_micros: 1_700_000_000_000_000,
        })
    }

    fn annotator(&mut self, domain: Domain) -> Arc<Annotator> {
        let coverage = self.config.coverage;
        Arc::clone(
            self.annotators
                .entry(domain.name().to_lowercase())
                .or_insert_with(|| Arc::new(Annotator::new(&recognizers_for(domain, coverage)))),
        )
    }

    /// The daemon's induction: the shared annotator of the domain, the
    /// daemon's sample size, default threads.
    fn induce(
        &mut self,
        root: &Span,
        source: &str,
        domain: Domain,
        revision: u64,
        pages: &[String],
    ) -> Result<StoredWrapper, String> {
        let config = PipelineConfig {
            sample: SampleConfig {
                sample_size: self.config.sample_size,
                ..SampleConfig::default()
            },
            ..PipelineConfig::default()
        };
        let clean = config.clean.clone();
        let pipeline = Pipeline::with_annotator(
            domain.sod(),
            recognizers_for(domain, self.config.coverage),
            self.annotator(domain),
        )
        .with_config(config);
        let outcome = self
            .ledger
            .timed(root, "core.induce", || pipeline.run_on_html(pages))
            .map_err(|e| format!("replayed induction of {source}: {e}"))?;
        let wall = |s: Stage| {
            outcome
                .stats
                .stage(s)
                .map_or(0.0, |t| t.wall_micros.max(t.cpu_micros) as f64)
        };
        self.inductions.push((
            [
                wall(Stage::Annotate),
                wall(Stage::Sample),
                wall(Stage::Wrap),
            ],
            outcome.stats.reruns as f64,
        ));
        let stored = StoredWrapper {
            source: source.to_owned(),
            domain: domain.name().to_lowercase(),
            revision,
            sod: domain.sod(),
            wrapper: outcome.wrapper,
            main_block: outcome.main_block,
            clean,
            repair: None,
        };
        let path = self.saves.join(format!("{source}.orw"));
        self.ledger
            .timed(root, "store.save", || save_file(&path, &stored))
            .map_err(|e| format!("save {}: {e}", path.display()))?;
        Ok(stored)
    }

    /// Parse, clean, main-block replay and extract pages, and score
    /// their drift when `drift` is set (the daemon does; the stream CLI
    /// does not).
    pub fn pages(
        &mut self,
        root: &Span,
        stored: &StoredWrapper,
        pages: &[impl AsRef<str>],
        drift: bool,
    ) -> (Vec<Document>, Vec<Vec<Instance>>, Vec<f64>) {
        let mut docs = Vec::with_capacity(pages.len());
        let mut objects = Vec::with_capacity(pages.len());
        let mut scores = Vec::with_capacity(pages.len());
        for html in pages {
            let html = html.as_ref();
            self.page_bytes += html.len();
            self.pages += 1;
            let parser = &mut self.parser;
            let ledger = &mut self.ledger;
            let mut doc = ledger.timed(root, "html.parse", || parser.parse(html));
            ledger.timed(root, "html.clean", || {
                clean_document(&mut doc, &stored.clean)
            });
            if let Some(choice) = &stored.main_block {
                ledger.timed(root, "segment.main_block", || {
                    simplify_to_main_block(&mut doc, choice)
                });
            }
            objects.push(ledger.timed(root, "core.extract", || {
                stored.wrapper.extract_document(&doc)
            }));
            if drift {
                scores.push(ledger.timed(root, "core.drift", || {
                    drift_score(&stored.wrapper.template, &stored.wrapper.mapping, &doc).score()
                }));
            }
            docs.push(doc);
        }
        (docs, objects, scores)
    }

    /// Render a response body, as the daemon (or the stream CLI's
    /// sink) does.
    pub fn encode(&mut self, root: &Span, build: impl FnOnce() -> Json) {
        let rendered = self.ledger.timed(root, "store.encode", || build().render());
        self.response_bytes += rendered.len();
    }

    pub fn wrapper(&mut self, root: &Span, source: &str) -> Result<StoredWrapper, String> {
        if let Some(w) = self.wrappers.get(source) {
            return Ok(w.clone());
        }
        let path = self.store.join(format!("{source}.orw"));
        let stored = self
            .ledger
            .timed(root, "store.load", || load_file(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.wrappers.insert(source.to_owned(), stored.clone());
        Ok(stored)
    }

    /// Replay one protocol line; returns the time its layer calls took.
    pub fn request(&mut self, line: &str) -> Result<Duration, String> {
        let before = self.ledger.total;
        let root = self.ledger.obs.trace("replay.request");
        self.request_bytes += line.len();
        let (req, pages) = self.ledger.timed(&root, "store.decode", || {
            let req = Json::parse(line).ok();
            let pages: Vec<String> = req
                .as_ref()
                .and_then(|r| r.get("pages"))
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| p.as_str().map(str::to_owned))
                .collect();
            (req, pages)
        });
        let req = req.ok_or("replayed request does not parse")?;
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or_default();
        let source = req
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        match cmd {
            "induce" => {
                let domain = req
                    .get("domain")
                    .and_then(Json::as_str)
                    .and_then(Domain::by_name)
                    .ok_or("replayed induce without a domain")?;
                let stored = self.induce(&root, &source, domain, 1, &pages)?;
                let (_, objects, _) = self.pages(&root, &stored, &pages, true);
                self.wrappers.insert(source, stored);
                self.encode(&root, || objects_json(&objects));
            }
            "extract" => {
                let mut stored = self.wrapper(&root, &source)?;
                let (mut docs, mut objects, drift) = self.pages(&root, &stored, &pages, true);
                let mean = drift.iter().sum::<f64>() / drift.len().max(1) as f64;
                let config = &self.config;
                if mean >= config.drift_threshold && pages.len() >= config.min_reinduce_pages {
                    // The drift lifecycle: repair first, re-induce when
                    // the repair is declined, then replay the batch.
                    let repair_cfg = RepairConfig {
                        coverage_floor: config.repair_floor,
                        ..RepairConfig::default()
                    };
                    let repaired = self.ledger.timed(&root, "core.repair", || {
                        repair_wrapper(&stored.wrapper, &stored.sod, &docs, &repair_cfg)
                    });
                    self.repairs.push(RepairCase {
                        old: stored.clone(),
                        docs: std::mem::take(&mut docs),
                    });
                    let revision = stored.revision + 1;
                    stored = match repaired {
                        Ok(r) => {
                            let next = StoredWrapper {
                                revision,
                                wrapper: r.wrapper,
                                ..stored.clone()
                            };
                            let path = self.saves.join(format!("{source}.orw"));
                            self.ledger
                                .timed(&root, "store.save", || save_file(&path, &next))
                                .map_err(|e| format!("save {}: {e}", path.display()))?;
                            next
                        }
                        Err(_) => {
                            self.declined += 1;
                            let domain = Domain::by_name(&stored.domain).ok_or("stored domain")?;
                            self.induce(&root, &source, domain, revision, &pages)?
                        }
                    };
                    objects = self.pages(&root, &stored, &pages, true).1;
                    self.wrappers.insert(source.clone(), stored.clone());
                }
                if let Some(store) = self.objects.as_mut() {
                    let domain = Domain::by_name(&stored.domain).ok_or("stored domain")?;
                    let key_attrs = domain.key_attributes();
                    let offers = objects
                        .iter()
                        .enumerate()
                        .flat_map(|(i, page)| {
                            page.iter().map(move |o| IngestObject {
                                instance: o.clone(),
                                page_id: format!("page-{i:04}"),
                            })
                        })
                        .collect();
                    let ctx = IngestContext {
                        source: &source,
                        domain: domain.name(),
                        wrapper_revision: stored.revision,
                        repaired_from: None,
                        extracted_unix_micros: self.now_micros,
                        confidence: stored.wrapper.quality,
                        key_attrs: &key_attrs,
                    };
                    let report = self
                        .ledger
                        .timed(&root, "objstore.ingest", || {
                            store.ingest(offers, &ctx, None)
                        })
                        .map_err(|e| format!("replayed ingest: {e}"))?;
                    self.ledger.add("objstore.offered", report.ingested);
                    self.ledger.add("objstore.written", report.records_written);
                }
                let domain = Domain::by_name(&stored.domain).ok_or("stored domain")?;
                if self.extracted.len() < 400 {
                    self.extracted.push((
                        source.clone(),
                        domain,
                        objects.iter().flatten().cloned().collect(),
                    ));
                }
                self.encode(&root, || objects_json(&objects));
            }
            "query" | "get" => {
                let store = self
                    .objects
                    .as_ref()
                    .ok_or("query without an object store")?;
                let ledger = &mut self.ledger;
                let rendered = if cmd == "get" {
                    let key = req.get("key").and_then(Json::as_str).unwrap_or_default();
                    let hit = ledger
                        .timed(&root, "objstore.get", || store.get(key))
                        .map_err(|e| format!("replayed get: {e}"))?;
                    ledger.timed(&root, "store.encode", || {
                        hit.map(|h| record_json(&h, &[]).render())
                            .unwrap_or_default()
                    })
                } else {
                    let q = Query::from_json(&req)?;
                    let result = ledger
                        .timed(&root, "objstore.query", || store.query(&q, None))
                        .map_err(|e| format!("replayed query: {e}"))?;
                    ledger.add("objstore.scanned", result.scanned as u64);
                    ledger.add("objstore.hits", result.hits.len() as u64);
                    ledger.timed(&root, "store.encode", || {
                        Json::Arr(
                            result
                                .hits
                                .iter()
                                .map(|h| record_json(h, &q.select))
                                .collect(),
                        )
                        .render()
                    })
                };
                self.response_bytes += rendered.len();
            }
            _ => {}
        }
        root.finish();
        Ok(self.ledger.total - before)
    }
}

fn objects_json(per_page: &[Vec<Instance>]) -> Json {
    Json::Arr(per_page.iter().flatten().map(instance_json).collect())
}

/// The structure-only template a repair infers from drifted pages.
fn drifted_template(old: &StoredWrapper, docs: &[Document]) -> TemplateTree {
    let pages: Vec<AnnotatedPage> = docs
        .iter()
        .map(|d| AnnotatedPage {
            doc: d.clone(),
            annotations: Default::default(),
        })
        .collect();
    let mut src = SourceTokens::from_pages(&pages);
    let infer = DiffConfig {
        set_types: old
            .sod
            .set_entity_types()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        ..DiffConfig::default()
    };
    let outcome = differentiate(&mut src, &infer, |_, _| false);
    build_template(&src, &outcome.analysis)
}

/// Pages of one source cycled to `n` pages.
fn cycled(source: &Source, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| source.pages[i % source.pages.len()].clone())
        .collect()
}

/// One `extract_stream` pass over `pages` with the sink of the
/// `extract-stream` CLI, which renders each page's output line. Returns
/// the stream's statistics, the time spent in the sink, and the lines.
pub fn stream_pass<I>(
    stored: &StoredWrapper,
    pages: I,
    threads: Option<usize>,
) -> (StreamStats, Duration, Vec<String>)
where
    I: IntoIterator,
    I::IntoIter: Send,
    I::Item: AsRef<str> + Send,
{
    let mut sink = Duration::ZERO;
    let mut lines = Vec::new();
    let stats = extract_stream(
        &stored.wrapper,
        stored.main_block.as_ref(),
        &stored.clean,
        pages,
        &StreamConfig {
            threads,
            ..StreamConfig::default()
        },
        |page, instances| {
            let t0 = Instant::now();
            let line = Json::Obj(vec![
                ("page".into(), Json::int(page)),
                (
                    "objects".into(),
                    Json::Arr(instances.iter().map(instance_json).collect()),
                ),
            ])
            .render();
            lines.push(line);
            sink += t0.elapsed();
        },
    );
    (stats, sink, lines)
}

/// The `core.stream.*` metrics of passes at the default thread count
/// and on one thread, each with its sink time: medians over the passes.
pub fn stream_metrics(
    multi: &[(StreamStats, Duration)],
    single: &[(StreamStats, Duration)],
) -> Vec<(&'static str, f64, &'static str)> {
    let pps = |passes: &[(StreamStats, Duration)]| {
        stats::median(
            &passes
                .iter()
                .map(|(s, _)| s.pages_per_sec())
                .collect::<Vec<_>>(),
        )
    };
    let (pps, pps_1t) = (pps(multi), pps(single));
    let sink_share = stats::median(
        &multi
            .iter()
            .map(|(s, sink)| stats::us(*sink) / s.wall_micros as f64)
            .collect::<Vec<_>>(),
    );
    let arena = multi
        .iter()
        .map(|(s, _)| s.arena_peak_bytes)
        .max()
        .unwrap_or(0);
    vec![
        ("core.stream.pages_per_s", pps, "1/s"),
        ("core.stream.pages_per_s_1t", pps_1t, "1/s"),
        ("core.stream.scaling", pps / pps_1t, "ratio"),
        ("core.stream.sink_share", sink_share, "ratio"),
        ("core.stream.arena_peak_bytes", arena as f64, "bytes"),
    ]
}

/// Run every probe the workload's traffic did not already cover, on
/// the workload's `sources` (the streaming path only when `stream` is
/// set); returns the probe-only metrics as (name, value, unit).
pub fn probes(
    ctx: &mut Ctx,
    sources: &[Source],
    replay: &mut Replay,
    stream: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let store = replay.store.clone();
    let probe = &sources[0];
    let sources: Vec<&Source> = sources.iter().take(PROBE_SOURCES).collect();

    // Request decoding, drift scoring and response encoding: cached
    // extracts of the probe source's pages, replayed in process.
    if replay.ledger.count("store.decode") == 0 {
        for chunk in probe.pages.chunks(8).take(REQUEST_PROBES) {
            replay.request(&extract_line(&probe.name, chunk))?;
        }
    }
    let root = replay.ledger.obs.trace("probe");

    // Induction and persistence.
    if replay.inductions.is_empty() {
        for s in &sources {
            let pages = &s.pages[..fleet::INDUCE_PAGES.min(s.pages.len())];
            let stored = replay.induce(&root, &s.name, s.domain, 1, pages)?;
            replay.wrappers.entry(s.name.clone()).or_insert(stored);
        }
    }
    // Wrapper loading: every wrapper file the run persisted.
    if replay.ledger.count("store.load") == 0 {
        let dir = if store.read_dir().is_ok_and(|mut d| d.next().is_some()) {
            store.clone()
        } else {
            replay.saves.clone()
        };
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            replay
                .ledger
                .timed(&root, "store.load", || load_file(&path))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    // Repair, on the same sources' own pages rendered through a
    // separator-tier and a container-tier redesign.
    if replay.repairs.is_empty() {
        for s in &sources {
            let stored = replay.wrapper(&root, &s.name)?;
            for (strength, range) in [(onboard::SEPARATOR, 0..8), (onboard::CONTAINER, 8..16)] {
                let spec = SiteSpec {
                    pages: 16,
                    ..s.spec.clone()
                };
                let drifted = generate(&s.name, spec, strength).pages;
                let docs = extract_only(
                    &stored.wrapper,
                    stored.main_block.as_ref(),
                    &stored.clean,
                    &drifted[range],
                    None,
                )
                .docs;
                let cfg = RepairConfig {
                    coverage_floor: replay.config.repair_floor,
                    ..RepairConfig::default()
                };
                let repaired = replay.ledger.timed(&root, "core.repair", || {
                    repair_wrapper(&stored.wrapper, &stored.sod, &docs, &cfg)
                });
                replay.declined += repaired.is_err() as usize;
                replay.repairs.push(RepairCase {
                    old: stored.clone(),
                    docs,
                });
            }
        }
    }
    for case in std::mem::take(&mut replay.repairs) {
        let new = drifted_template(&case.old, &case.docs);
        replay.ledger.timed(&root, "core.treediff", || {
            match_trees(&case.old.wrapper.template, &new, &TreeDiffConfig::default())
        });
        replay.repairs.push(case);
    }

    // The object store: ingest what the replay extracted, then read it
    // back by key, by filter and by cursor.
    if replay.objects.is_none() {
        let mut store = ObjectStore::open(ctx.path("probe-objects"), Obs::disabled())
            .map_err(|e| format!("probe object store: {e}"))?;
        let mut keys: Vec<(Domain, String, Instance)> = Vec::new();
        for (source, domain, objects) in &replay.extracted {
            let key_attrs = domain.key_attributes();
            for o in objects {
                if let Ok(k) = objectrunner_core::dedup::object_key_checked(o, &key_attrs) {
                    keys.push((*domain, k, o.clone()));
                }
            }
            let offers = objects
                .iter()
                .map(|o| IngestObject {
                    instance: o.clone(),
                    page_id: "page-0000".to_owned(),
                })
                .collect();
            let ictx = IngestContext {
                source,
                domain: domain.name(),
                wrapper_revision: 1,
                repaired_from: None,
                extracted_unix_micros: replay.now_micros,
                confidence: 1.0,
                key_attrs: &key_attrs,
            };
            let report = replay
                .ledger
                .timed(&root, "objstore.ingest", || {
                    store.ingest(offers, &ictx, None)
                })
                .map_err(|e| format!("probe ingest: {e}"))?;
            replay.ledger.add("objstore.offered", report.ingested);
            replay
                .ledger
                .add("objstore.written", report.records_written);
        }
        let mut rng = Rng::fork(ctx.seed, "probe-objects");
        for i in 0..keys.len().min(300) {
            let (domain, key, object) = &keys[rng.below(keys.len())];
            match i % 3 {
                0 => {
                    replay
                        .ledger
                        .timed(&root, "objstore.get", || store.get(key))
                        .map_err(|e| format!("probe get: {e}"))?;
                }
                k => {
                    let attr = domain.key_attributes()[0];
                    let value = object
                        .flatten()
                        .into_iter()
                        .find(|(t, _)| *t == attr)
                        .map(|(_, v)| v.to_owned())
                        .unwrap_or_default();
                    let filter = format!(
                        r#"{{"domain":"{}","where":[{{"attr":"{attr}","value":{}}}],"limit":20}}"#,
                        domain.name(),
                        Json::str(value).render()
                    );
                    let cursor = format!(
                        r#"{{"domain":"{}","limit":20,"cursor":{}}}"#,
                        domain.name(),
                        Json::str(key.as_str()).render()
                    );
                    let json = Json::parse(if k == 1 { &filter } else { &cursor })
                        .map_err(|e| format!("probe query: {e}"))?;
                    let q = Query::from_json(&json)?;
                    let result = replay
                        .ledger
                        .timed(&root, "objstore.query", || store.query(&q, None))
                        .map_err(|e| format!("probe query: {e}"))?;
                    replay.ledger.add("objstore.scanned", result.scanned as u64);
                    replay.ledger.add("objstore.hits", result.hits.len() as u64);
                }
            }
        }
        replay.objects = Some(store);
    }
    let status = replay.objects.as_ref().expect("store opened").status();
    out.push((
        "objstore.bytes_per_live_object",
        status.bytes as f64 / status.live_objects.max(1) as f64,
        "bytes/object",
    ));

    // The streaming path over one source's pages, at the default thread
    // count and on one thread.
    let stored = replay.wrapper(&root, &probe.name)?;
    let pages = cycled(probe, if ctx.smoke { 100 } else { PROBE_PAGES });
    if stream {
        let (multi, sink, _) = stream_pass(&stored, pages.iter(), None);
        let (single, single_sink, _) = stream_pass(&stored, pages.iter(), Some(1));
        out.extend(stream_metrics(&[(multi, sink)], &[(single, single_sink)]));
    }

    // Executor start-up: one-page extractions at the default thread
    // count against the same on the calling thread.
    let (mut none, mut one) = (Vec::new(), Vec::new());
    for html in pages.iter().take(if ctx.smoke { 20 } else { SPAWN_PROBES }) {
        for (threads, into) in [(None, &mut none), (Some(1), &mut one)] {
            let t0 = Instant::now();
            std::hint::black_box(extract_only(
                &stored.wrapper,
                stored.main_block.as_ref(),
                &stored.clean,
                &[html],
                threads,
            ));
            into.push(stats::us(t0.elapsed()));
        }
    }
    out.push((
        "core.exec.spawn_overhead_us",
        stats::median(&none) - stats::median(&one),
        "us",
    ));

    // Observability: the extract path with metrics and spans recorded
    // against the same with a disabled handle.
    let chunks: Vec<&[String]> = pages.chunks(8).collect();
    let timed_extract = |obs: &Obs| {
        let t0 = Instant::now();
        for c in &chunks {
            std::hint::black_box(extract_only_with(
                &stored.wrapper,
                stored.main_block.as_ref(),
                &stored.clean,
                c,
                None,
                obs,
                None,
                None,
            ));
        }
        stats::us(t0.elapsed())
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_ROUNDS {
        off.push(timed_extract(&Obs::disabled()));
        on.push(timed_extract(&Obs::enabled()));
    }
    out.push((
        "obs.overhead_pct",
        100.0 * (stats::median(&on) / stats::median(&off) - 1.0),
        "%",
    ));

    // This ledger's own spans: the page replay with span recording on
    // against off.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for round in 0..2 * OVERHEAD_ROUNDS {
        let enabled = round % 2 == 1;
        let mut quiet = Replay::new(
            ctx,
            if enabled {
                Obs::enabled()
            } else {
                Obs::disabled()
            },
            &store,
            false,
        )?;
        let r = quiet.ledger.obs.trace("replay.pages");
        let t0 = Instant::now();
        quiet.pages(&r, &stored, &pages, true);
        let took = stats::us(t0.elapsed());
        if enabled { &mut on } else { &mut off }.push(took);
    }
    out.push((
        "trace.overhead_pct",
        100.0 * (stats::median(&on) / stats::median(&off) - 1.0),
        "%",
    ));

    // Recognizer matching over every text node of the cleaned pages.
    let annotator = replay.annotator(probe.domain);
    let texts: Vec<String> = pages
        .iter()
        .take(200)
        .flat_map(|html| {
            let mut doc = objectrunner_html::parse(html);
            clean_document(&mut doc, &stored.clean);
            doc.descendants(doc.root())
                .filter_map(|id| match &doc.node(id).kind {
                    NodeKind::Text(t) => Some(t.clone()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut scratch = MatchScratch::new();
    let mut matched = Vec::new();
    let t0 = Instant::now();
    for t in &texts {
        annotator
            .compiled()
            .match_all(t, &mut scratch, &mut matched);
        std::hint::black_box(&matched);
    }
    out.push((
        "knowledge.match.us_per_page",
        stats::us(t0.elapsed()) / pages.len().min(200) as f64,
        "us/page",
    ));
    root.finish();
    Ok(out)
}
