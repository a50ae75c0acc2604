//! The traced per-layer ledger (`--trace 1`): the same seeded inputs as
//! the end-to-end run, shorter, with the workload's own traffic timed
//! three ways.
//!
//! On the daemon workloads each request is timed
//! 1. over TCP to the shipped daemon (round trip from send to answer);
//! 2. in process, through `Service::handle_batch` on a copy of the same
//!    stores; this is also the reference each daemon answer is checked
//!    against;
//! 3. as a replay of the public layer calls the request makes: request
//!    decode, parse, clean, main-block replay, extract, drift scoring,
//!    object-store ingest or query, induction, repair, wrapper
//!    persistence, and response encode.
//!
//! `serve.conn` is the round trip minus the in-process service time,
//! and `serve.service_self` the service time minus the replayed layer
//! calls: both are residuals, not timed spans.
//!
//! `stream-crawl` sends no requests. Its traffic is `extract_stream`
//! over the same on-disk corpus the CLI reads, at the default thread
//! count and on one thread, with the CLI's sink, plus a per-page sample
//! of the layer calls (parse, clean, main block, extract) and of the
//! output line's encoding.
//!
//! Every traced run prints every per-layer metric. A layer the
//! workload's own traffic never calls is measured by a probe on the
//! workload's inputs, and its note says so; on `stream-crawl` the
//! `serve.*` metrics come from a short run of cached extracts of the
//! corpus pages over TCP. The `share.*` metrics count the workload's
//! own traffic only, so a layer it never calls has a share of 0.
//! `layers.json` next to this crate lists, for each metric, the
//! workloads whose traffic reaches it and what it should move.
//!
//! Spans of every timed call are recorded through a bench-owned
//! `Obs` and written at the end as JSONL and as a Chrome trace.

use crate::daemon::Daemon;
use crate::harvest::{Kind, Kinds, Stored};
use crate::inputs::{extract_line, window, wire, Deck, Rng, Source};
use crate::net::{self, Client, Completion};
use crate::replay::{probes, stream_metrics, stream_pass, Replay, PROBE_PAGES};
use crate::report::Report;
use crate::serving::{fill_span_ring, Pooled, DRAIN};
use crate::{check, fleet, harvest, onboard, serve_cached, stats, stream, Ctx, Workload};
use objectrunner_obs::{export, Obs};
use objectrunner_serve::instance_json;
use objectrunner_store::Json;
use objectrunner_webgen::{CorpusDir, MappedText};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Traffic requests per traced run at most.
const TRACE_REQUESTS: usize = 2000;
/// Fresh sources the traced `onboard-drift` run brings on.
const TRACE_SOURCES: usize = 40;
/// Share of the measured time the traced traffic may take.
const TRAFFIC_SHARE: f64 = 0.4;
/// Responses at least this long (newline included) are "large": they
/// outgrow the daemon's 8 KiB write buffer.
const LARGE_RESPONSE: usize = 8 << 10;
/// Requests of the connection probe on `stream-crawl`.
const CONN_PROBE_REQUESTS: usize = 400;
/// `extract_stream` passes each way on `stream-crawl`; the stream
/// metrics are medians over them.
const STREAM_PASSES: usize = 5;
/// One corpus page in this many goes through the per-page replay.
const PAGE_SAMPLE: usize = 5;

/// The note of a metric whose layer the workload's traffic never calls.
const OFF_PATH: &str = "probe: off this workload's path";

/// Daemon traffic: what the traced run sends.
struct Plan {
    /// The daemon's wrapper directory before the traffic; the daemon
    /// and the in-process service each get a copy.
    store: PathBuf,
    /// Whether both services run with an object store.
    objects: bool,
    /// Sent one at a time before the traffic (the cold start's
    /// warm-up).
    warm: Vec<Pooled>,
    /// Repeated after the warm-up until the span ring is full (empty:
    /// the traffic is too short to fill it).
    fill: Vec<Pooled>,
    pool: Vec<Vec<u8>>,
    /// (offset, pool index) in send order.
    traffic: Vec<(Duration, usize)>,
    /// Open loop over every connection; otherwise one request at a time.
    open_loop: bool,
    /// Sources the probes draw pages and specs from.
    sources: Vec<Source>,
    /// What each `harvest` request is, for the read checks.
    kinds: Option<Kinds>,
}

/// Requests at `rate` over `span`, dealt from a pool of `n`, at most
/// `cap` of them.
fn schedule(
    ctx: &Ctx,
    stream: &str,
    rate: f64,
    n: usize,
    span: Duration,
    cap: usize,
) -> Vec<(Duration, usize)> {
    let mut s = crate::serving::schedule(
        &mut Rng::fork(ctx.seed, stream),
        &mut Deck::new(n),
        rate,
        span,
    );
    s.truncate(cap);
    s
}

fn plan(ctx: &Ctx, w: Workload) -> Result<Plan, String> {
    let span = ctx.span(TRAFFIC_SHARE);
    let cap = if ctx.smoke { 50 } else { TRACE_REQUESTS };
    let lines = |pool: &[Pooled]| pool.iter().map(|p| p.line.clone()).collect();
    Ok(match w {
        Workload::ServeCached => {
            let i = serve_cached::inputs(ctx)?;
            let rate = serve_cached::R_FIXED;
            Plan {
                store: i.fleet.store.clone(),
                objects: false,
                fill: i.warm.clone(),
                warm: i.warm,
                traffic: schedule(ctx, "cached-traffic", rate, i.pool.len(), span, cap),
                pool: lines(&i.pool),
                open_loop: true,
                sources: i.fleet.sources,
                kinds: None,
            }
        }
        Workload::Harvest => {
            let i = harvest::inputs(ctx)?;
            let rate = harvest::R_FIXED;
            Plan {
                store: i.fleet.store.clone(),
                objects: true,
                fill: i.fill,
                warm: i.warm,
                traffic: schedule(ctx, "harvest-traffic", rate, i.pool.len(), span, cap),
                pool: lines(&i.pool),
                open_loop: true,
                sources: i.fleet.sources,
                kinds: Some(i.kinds),
            }
        }
        Workload::OnboardDrift => {
            let count = if ctx.smoke { 2 } else { TRACE_SOURCES };
            let mut pool = Vec::new();
            let mut sources = Vec::new();
            for k in 0..count {
                let (source, steps) = onboard::source_steps(ctx.seed, k);
                pool.extend(steps.into_iter().map(|s| s.line));
                sources.push(source);
            }
            Plan {
                store: ctx.path("store"),
                objects: false,
                warm: Vec::new(),
                fill: Vec::new(),
                traffic: (0..pool.len()).map(|k| (Duration::ZERO, k)).collect(),
                pool,
                open_loop: false,
                sources,
                kinds: None,
            }
        }
        Workload::StreamCrawl => unreachable!("stream-crawl sends no requests"),
    })
}

/// Cached extracts of the crawl's own pages at `serve-cached`'s rate:
/// the probe behind the `serve.*` metrics of `stream-crawl`, whose
/// traffic sends no requests.
fn conn_probe(ctx: &Ctx, source: &Source) -> Plan {
    let n = if ctx.smoke { 50 } else { CONN_PROBE_REQUESTS };
    let mut rng = Rng::fork(ctx.seed, "stream-requests");
    let pool: Vec<Vec<u8>> = serve_cached::page_counts(n, &mut rng)
        .into_iter()
        .map(|k| {
            let start = rng.below(source.pages.len());
            wire(extract_line(&source.name, window(&source.pages, start, k)))
        })
        .collect();
    let rate = serve_cached::R_FIXED;
    // Half a send interval more than n intervals, so that rounding
    // cannot drop the last request.
    let span = Duration::from_secs_f64((n as f64 + 0.5) / rate);
    Plan {
        store: ctx.path("store"),
        objects: false,
        warm: Vec::new(),
        fill: Vec::new(),
        traffic: schedule(ctx, "stream-traffic", rate, n, span, n),
        pool,
        open_loop: true,
        sources: Vec::new(),
        kinds: None,
    }
}

/// One traffic request as the daemon answered it.
struct Answer {
    sent: Instant,
    due: Instant,
    done: Instant,
    response: String,
}

struct Tcp {
    answers: Vec<Option<Answer>>,
    /// Requests per pipeline run, from the daemon's batching counters.
    requests_per_run: f64,
    /// The objects the warm-up stored, for the read checks.
    stored: Stored,
}

/// Drive the traffic over TCP against the shipped daemon, started on
/// fresh copies of the plan's stores (`attempt` names them).
fn over_tcp(ctx: &mut Ctx, plan: &Plan, attempt: usize) -> Result<Tcp, String> {
    let store = ctx.path(&format!("tcp-store-{attempt}"));
    copy_dir(&plan.store, &store)?;
    let mut args = vec!["--store".to_owned(), store.display().to_string()];
    if plan.objects {
        args.push("--object-store".to_owned());
        let objects = ctx.path(&format!("tcp-objects-{attempt}"));
        args.push(objects.display().to_string());
    }
    let daemon = Daemon::spawn(&ctx.serve_bin, &args, &ctx.path("daemon.log"))?;
    let mut one = Client::connect(daemon.addr, 1).map_err(|e| format!("connect: {e}"))?;
    for (id, w) in plan.warm.iter().enumerate() {
        let c = one.call(id, &w.line, DRAIN).map_err(|e| e.to_string())?;
        crate::serving::check(&mut ctx.report, &plan.warm, &c);
    }
    let mut stored = Stored::default();
    if let Some(kinds) = &plan.kinds {
        let warmed = Instant::now();
        for kind in &kinds.warm {
            stored.extracted(kind, warmed);
        }
    }
    if !plan.fill.is_empty() {
        fill_span_ring(ctx, &daemon, &plan.fill, &mut |r, c| match &plan.kinds {
            Some(kinds) => r.answered(
                &c.response,
                stored.holds(&kinds.fill[c.id], c.sent, &c.response),
            ),
            None => crate::serving::check(r, &plan.fill, c),
        })?;
    }
    let lines: Vec<&[u8]> = plan
        .traffic
        .iter()
        .map(|&(_, id)| plan.pool[id].as_slice())
        .collect();
    let mut answers: Vec<Option<Answer>> = (0..lines.len()).map(|_| None).collect();
    let mut keep = |c: &Completion| {
        answers[c.id] = Some(Answer {
            sent: c.sent,
            due: c.due,
            done: c.done,
            response: c.response.clone(),
        })
    };
    if plan.open_loop {
        let schedule: Vec<(Duration, usize)> = plan
            .traffic
            .iter()
            .enumerate()
            .map(|(k, &(at, _))| (at, k))
            .collect();
        let mut client =
            Client::connect(daemon.addr, ctx.conns).map_err(|e| format!("connect: {e}"))?;
        net::open_loop(&mut client, &schedule, &lines, DRAIN, &mut keep)
            .map_err(|e| format!("traced traffic: {e}"))?;
    } else {
        let mut due = Instant::now();
        for (k, line) in lines.iter().enumerate() {
            let mut c = one.call(k, line, DRAIN).map_err(|e| e.to_string())?;
            c.due = due;
            due = c.done;
            keep(&c);
        }
    }
    let status = one
        .call(0, b"{\"cmd\":\"status\"}\n", DRAIN)
        .map_err(|e| format!("status: {e}"))?;
    let serving = Json::parse(&status.response)
        .ok()
        .and_then(|j| j.get("serving").cloned())
        .ok_or("status without a serving section")?;
    let count = |k: &str| serving.get(k).and_then(Json::as_i64).unwrap_or(0) as f64;
    let (requests, batches, batched) = (
        count("requests"),
        count("batches"),
        count("batched_requests"),
    );
    let runs = requests - batched + batches;
    Ok(Tcp {
        answers,
        requests_per_run: if runs > 0.0 {
            requests / runs
        } else {
            f64::NAN
        },
        stored,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let Ok(entries) = std::fs::read_dir(from) else {
        return Ok(());
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// The same requests, in send order, through `Service::handle_batch`
/// on copies of the stores: (service time, response) per request.
fn in_process(ctx: &Ctx, plan: &Plan, obs: &Obs) -> Result<Vec<(Duration, String)>, String> {
    let store = ctx.path("copy-store");
    copy_dir(&plan.store, &store)?;
    let objects = plan.objects.then(|| ctx.path("copy-objects"));
    let service = fleet::service(&store, objects.as_deref());
    let mut cache = service.reader_cache();
    for w in &plan.warm {
        service.handle_batch(&[text(&w.line)], &mut cache);
    }
    // The same steady state as the daemon: warm requests until the
    // service's span ring is full.
    let mut k = 0;
    while !plan.fill.is_empty() && !ctx.smoke && service.obs().dropped_spans() == 0 {
        service.handle_batch(&[text(&plan.fill[k % plan.fill.len()].line)], &mut cache);
        k += 1;
    }
    Ok(plan
        .traffic
        .iter()
        .map(|&(_, id)| {
            let span = obs.trace("serve.handle_batch");
            let t0 = Instant::now();
            let mut out = service.handle_batch(&[text(&plan.pool[id])], &mut cache);
            let took = t0.elapsed();
            span.finish();
            (took, out.pop().unwrap_or_default())
        })
        .collect())
}

fn text(line: &[u8]) -> &str {
    std::str::from_utf8(line)
        .expect("request lines are UTF-8")
        .trim_end()
}

/// Daemon traffic timed three ways, per answered request, in ms.
struct Served {
    /// Round trip − in-process service (a residual), for responses
    /// under and at least 8 KiB.
    small: Vec<f64>,
    large: Vec<f64>,
    /// In-process `handle_batch`.
    service: Vec<f64>,
    /// `handle_batch` − the replayed layer calls (a residual).
    own: Vec<f64>,
    rtt_sum: f64,
    requests_per_run: f64,
    /// Generator lateness (send − due) per request.
    late: Vec<f64>,
    /// Replayed layer time of the traffic alone, warm-up excluded.
    layer_time: BTreeMap<&'static str, Duration>,
}

/// Send the plan's traffic to the daemon, check every answer, and time
/// the same requests in process and as replayed layer calls.
fn serve(ctx: &mut Ctx, plan: &Plan, replay: &mut Replay) -> Result<Served, String> {
    // A fixed-rate phase the generator sent late measured a busy host:
    // run it again, on fresh stores; if every attempt is late the run
    // is invalid.
    let mut attempt = 1;
    let (mut tcp, late) = loop {
        let tcp = over_tcp(ctx, plan, attempt)?;
        let late: Vec<f64> = tcp
            .answers
            .iter()
            .flatten()
            .map(|a| stats::ms(a.sent.saturating_duration_since(a.due)))
            .collect();
        let on_time =
            !plan.open_loop || crate::on_time(&mut ctx.report, "traced traffic", attempt, &late).1;
        if on_time || attempt == crate::LATE_ATTEMPTS {
            break (tcp, late);
        }
        attempt += 1;
    };
    let service = in_process(ctx, plan, &replay.ledger.obs)?;

    // Every daemon answer against the in-process one; a harvest read
    // against its query and the objects stored before it was sent.
    let kind = |k: usize| {
        plan.kinds
            .as_ref()
            .map(|kinds| &kinds.pool[plan.traffic[k].1])
    };
    for (k, answer) in tcp.answers.iter().enumerate() {
        if let (Some(a), Some(kind)) = (answer, kind(k)) {
            if check::ok(&a.response) {
                tcp.stored.extracted(kind, a.done);
            }
        }
    }
    for (k, (answer, (_, want))) in tcp.answers.iter().zip(&service).enumerate() {
        let Some(a) = answer else {
            crate::serving::unanswered(&mut ctx.report, 1, 0);
            continue;
        };
        let correct = match kind(k) {
            Some(read @ (Kind::Get(_) | Kind::Query(_))) => {
                tcp.stored.holds(read, a.sent, &a.response)
            }
            _ => check::same(&a.response, want),
        };
        ctx.report.answered(&a.response, correct);
    }

    // The layer replay of the same requests, in send order.
    for w in &plan.warm {
        replay.request(text(&w.line))?;
    }
    let warm_time = replay.ledger.time.clone();
    let mut replayed = Vec::with_capacity(plan.traffic.len());
    for &(_, id) in &plan.traffic {
        replayed.push(replay.request(text(&plan.pool[id]))?);
    }
    let layer_time = replay
        .ledger
        .time
        .iter()
        .map(|(k, v)| {
            (
                *k,
                v.saturating_sub(warm_time.get(k).copied().unwrap_or_default()),
            )
        })
        .collect();

    let mut s = Served {
        small: Vec::new(),
        large: Vec::new(),
        service: Vec::new(),
        own: Vec::new(),
        rtt_sum: 0.0,
        requests_per_run: tcp.requests_per_run,
        late,
        layer_time,
    };
    for ((answer, (service_time, _)), replay_time) in
        tcp.answers.iter().zip(&service).zip(&replayed)
    {
        let Some(a) = answer else { continue };
        let rtt = stats::ms(a.done.duration_since(a.sent));
        let svc = stats::ms(*service_time);
        if a.response.len() + 1 >= LARGE_RESPONSE {
            s.large.push(rtt - svc);
        } else {
            s.small.push(rtt - svc);
        }
        s.service.push(svc);
        s.own.push(svc - stats::ms(*replay_time));
        s.rtt_sum += rtt;
    }
    Ok(s)
}

/// The layers each `share.*` metric sums.
const SHARES: [(&str, &[&str]); 11] = [
    ("share.store.decode", &["store.decode"]),
    ("share.html.parse", &["html.parse"]),
    ("share.html.clean", &["html.clean"]),
    ("share.segment.main_block", &["segment.main_block"]),
    ("share.core.extract", &["core.extract"]),
    ("share.core.drift", &["core.drift"]),
    ("share.core.induce", &["core.induce"]),
    ("share.core.repair", &["core.repair"]),
    (
        "share.objstore",
        &["objstore.ingest", "objstore.query", "objstore.get"],
    ),
    ("share.store.persist", &["store.save", "store.load"]),
    ("share.store.encode", &["store.encode"]),
];

/// Each layer's share of `total_ms`, the two serving residuals first.
fn shares(
    layer_time: &BTreeMap<&'static str, Duration>,
    total_ms: f64,
    conn_ms: f64,
    self_ms: f64,
) -> Vec<(&'static str, f64)> {
    let share = |ms: f64| 100.0 * ms / total_ms;
    let mut out = vec![
        ("share.serve.conn", share(conn_ms)),
        ("share.serve.service_self", share(self_ms)),
    ];
    for (name, layers) in SHARES {
        let ms: f64 = layers
            .iter()
            .map(|k| layer_time.get(k).map_or(0.0, |d| stats::ms(*d)))
            .sum();
        out.push((name, share(ms)));
    }
    out
}

/// What a traced run measured, ready to print.
struct Traced {
    replay: Replay,
    served: Served,
    /// The note of the `serve.*` metrics.
    served_note: &'static str,
    /// Layers the workload's own traffic called.
    reached: BTreeSet<&'static str>,
    shares: Vec<(&'static str, f64)>,
    share_note: &'static str,
    /// Requests, or stream passes, the shares summarize.
    samples: usize,
    arena_peak: usize,
    /// Metrics of the workload's own traffic other than the replayed
    /// layers: `stream-crawl`'s `core.stream.*`.
    traffic: Vec<(&'static str, f64, &'static str)>,
    probed: Vec<(&'static str, f64, &'static str)>,
}

/// The traced run of a daemon workload.
fn daemon_workload(ctx: &mut Ctx, w: Workload, obs: Obs) -> Result<Traced, String> {
    let plan = plan(ctx, w)?;
    let mut replay = Replay::new(ctx, obs, &plan.store, plan.objects)?;
    let served = serve(ctx, &plan, &mut replay)?;
    let reached = replay.ledger.time.keys().copied().collect();
    let arena_peak = replay.parser.arena_peak_bytes();
    let probed = probes(ctx, &plan.sources, &mut replay, true)?;
    let conn: f64 = served.small.iter().chain(&served.large).sum();
    let own: f64 = served.own.iter().sum();
    Ok(Traced {
        shares: shares(&served.layer_time, served.rtt_sum, conn, own),
        share_note: "of the traffic's summed round trips",
        samples: served.service.len(),
        served_note: "",
        replay,
        served,
        reached,
        arena_peak,
        traffic: Vec::new(),
        probed,
    })
}

/// A corpus page as the CLI streams it: a file that fails to map
/// streams as an empty page (and is counted).
enum Page {
    Text(MappedText),
    Failed,
}

impl AsRef<str> for Page {
    fn as_ref(&self) -> &str {
        match self {
            Page::Text(t) => t.as_str(),
            Page::Failed => "",
        }
    }
}

/// The traced run of `stream-crawl`.
fn crawl(ctx: &mut Ctx, obs: Obs) -> Result<Traced, String> {
    let pages = if ctx.smoke { 200 } else { stream::PAGES };
    let corpus = stream::corpus(ctx, pages)?;
    let dir = CorpusDir::open(&corpus.dir).map_err(|e| format!("corpus: {e}"))?;
    let spec = stream::spec(ctx.seed, pages);
    let mut replay = Replay::new(ctx, obs, &ctx.path("store"), false)?;
    let root = replay.ledger.obs.trace("crawl");

    // As the CLI does: load the wrapper, then stream the corpus
    // directory, mapping each page as it goes.
    let stored = replay.wrapper(&root, &spec.name)?;
    let passes = if ctx.smoke { 1 } else { STREAM_PASSES };
    let (mut multi, mut single) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        for threads in [None, Some(1)] {
            let failed = AtomicUsize::new(0);
            let (stats, sink, lines) = replay.ledger.timed(&root, "core.stream", || {
                let pages = dir.pages().map(|p| match p {
                    Ok(text) => Page::Text(text),
                    Err(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                        Page::Failed
                    }
                });
                stream_pass(&stored, pages, threads)
            });
            let (count, mismatched) = corpus.check(lines.iter().map(String::as_str));
            let report = &mut ctx.report;
            report.attempted += 1;
            if count != pages || failed.into_inner() > 0 {
                report.errors += 1;
                eprintln!("ledger: stream pass gave {count} of {pages} lines");
            } else if mismatched > 0 {
                report.mismatched += 1;
                eprintln!("ledger: stream pass: {mismatched} sampled lines differ");
            }
            match threads {
                None => multi.push((stats, sink)),
                Some(_) => single.push((stats, sink)),
            }
        }
    }

    // The per-page sample: the layer calls each page makes, and the
    // output line the sink renders for it.
    let sample: Vec<MappedText> = (0..pages)
        .step_by(PAGE_SAMPLE)
        .map(|i| dir.page(i))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("corpus page: {e}"))?;
    let (_, objects, _) = replay.pages(&root, &stored, &sample, false);
    for (i, page) in objects.into_iter().enumerate() {
        replay.encode(&root, || {
            Json::Obj(vec![
                ("page".into(), Json::int(i * PAGE_SAMPLE)),
                (
                    "objects".into(),
                    Json::Arr(page.iter().map(instance_json).collect()),
                ),
            ])
        });
    }
    root.finish();
    let reached: BTreeSet<&'static str> = replay.ledger.time.keys().copied().collect();
    let arena_peak = replay.parser.arena_peak_bytes();

    // Shares of a one-thread pass: its wall time against the sampled
    // per-page cost of each layer over the whole corpus, the sink's
    // measured time, and one wrapper load.
    let l = &replay.ledger;
    let wall_us = stats::median(
        &single
            .iter()
            .map(|(s, _)| s.wall_micros as f64)
            .collect::<Vec<_>>(),
    );
    let sink_us = stats::median(
        &single
            .iter()
            .map(|(_, d)| stats::us(*d))
            .collect::<Vec<_>>(),
    );
    let per_page = |layer: &str| l.us(layer) / replay.pages as f64 * pages as f64;
    let mut layer_time: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for layer in [
        "html.parse",
        "html.clean",
        "segment.main_block",
        "core.extract",
    ] {
        layer_time.insert(layer, Duration::from_secs_f64(per_page(layer) / 1e6));
    }
    layer_time.insert("store.encode", Duration::from_secs_f64(sink_us / 1e6));
    layer_time.insert(
        "store.load",
        Duration::from_secs_f64(l.mean_ms("store.load") / 1e3),
    );
    let traffic = stream_metrics(&multi, &single);

    // The serving layers, which this workload never calls: a short run
    // of cached extracts of the corpus pages over TCP.
    let html: Vec<String> = (0..pages.min(PROBE_PAGES))
        .map(|i| dir.page(i).map(|t| t.as_str().to_owned()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("corpus page: {e}"))?;
    let source = Source {
        name: spec.name.clone(),
        domain: spec.domain,
        spec,
        pages: html,
    };
    let plan = conn_probe(ctx, &source);
    let mut quiet = Replay::new(ctx, replay.ledger.obs.clone(), &plan.store, false)?;
    let served = serve(ctx, &plan, &mut quiet)?;
    let probed = probes(ctx, &[source], &mut replay, false)?;
    Ok(Traced {
        shares: shares(&layer_time, wall_us / 1e3, 0.0, 0.0),
        share_note: "of a one-thread stream pass's wall time",
        samples: single.len(),
        served_note:
            "probe: cached extracts of the corpus pages over TCP; off this workload's path",
        replay,
        served,
        reached,
        arena_peak,
        traffic,
        probed,
    })
}

/// Print every per-layer metric.
fn emit(r: &mut Report, t: &Traced) {
    let on_path = |layer: &str, what: &str| {
        if t.reached.contains(layer) {
            what.to_owned()
        } else {
            format!("{what}; {OFF_PATH}")
        }
    };
    let served = |what: &str| {
        if t.served_note.is_empty() {
            what.to_owned()
        } else {
            format!("{what}; {}", t.served_note)
        }
    };
    let s = &t.served;
    let q = |v: &[f64], p: f64| stats::quantile(&stats::sorted(v.to_vec()), p);
    let conn: Vec<f64> = s.small.iter().chain(&s.large).copied().collect();
    let n = conn.len();
    r.metric(
        "serve.conn.p50_ms.small",
        q(&s.small, 0.5),
        "ms",
        s.small.len(),
        &served("residual: round trip minus in-process service, response < 8 KiB"),
    );
    r.metric(
        "serve.conn.p50_ms.large",
        q(&s.large, 0.5),
        "ms",
        s.large.len(),
        &served("residual: round trip minus in-process service, response >= 8 KiB"),
    );
    r.metric(
        "serve.conn.p99_ms",
        q(&conn, 0.99),
        "ms",
        n,
        &served("residual, all responses"),
    );
    r.metric(
        "serve.service.p50_ms",
        q(&s.service, 0.5),
        "ms",
        n,
        &served("in-process Service::handle_batch"),
    );
    r.metric(
        "serve.service_self.p50_ms",
        q(&s.own, 0.5),
        "ms",
        n,
        &served("residual: handle_batch minus the replayed layer calls"),
    );
    r.metric(
        "serve.batch.requests_per_run",
        s.requests_per_run,
        "count",
        0,
        &served("daemon batching counters"),
    );
    r.metric(
        "gen.late_p99_ms",
        q(&s.late, 0.99),
        "ms",
        s.late.len(),
        &served("generator lateness (validity)"),
    );

    let replay = &t.replay;
    let l = &replay.ledger;
    let per_kb = |layer: &str, bytes: usize| l.us(layer) / (bytes as f64 / 1024.0);
    let per_page = |layer: &str| l.us(layer) / replay.pages as f64;
    let mean_of = |i: usize| {
        replay.inductions.iter().map(|(s, _)| s[i]).sum::<f64>()
            / replay.inductions.len() as f64
            / 1e3
    };
    let inductions = replay.inductions.len();
    let (hits, misses) = replay.annotators.values().fold((0, 0), |(h, m), a| {
        (h + a.cache_hits(), m + a.cache_misses())
    });
    let ratio = |a: &str, b: &str| l.count(a) as f64 / l.count(b).max(1) as f64;
    let calls = |layer: &str| l.count(layer) as usize;
    let stage = on_path("core.induce", "stage timing of run_on_html");
    r.metric(
        "store.decode.us_per_kb",
        per_kb("store.decode", replay.request_bytes),
        "us/KB",
        calls("store.decode"),
        &on_path("store.decode", "Json::parse of the request line"),
    );
    r.metric(
        "store.encode.us_per_kb",
        per_kb("store.encode", replay.response_bytes),
        "us/KB",
        calls("store.encode"),
        &on_path("store.encode", "instance_json + render"),
    );
    r.metric(
        "store.load.ms",
        l.mean_ms("store.load"),
        "ms",
        calls("store.load"),
        &on_path("store.load", "load_file"),
    );
    r.metric(
        "store.save.ms",
        l.mean_ms("store.save"),
        "ms",
        calls("store.save"),
        &on_path("store.save", "save_file"),
    );
    r.metric(
        "html.parse.us_per_kb",
        per_kb("html.parse", replay.page_bytes),
        "us/KB",
        replay.pages,
        &on_path("html.parse", "PageParser::parse"),
    );
    r.metric(
        "html.clean.us_per_page",
        per_page("html.clean"),
        "us/page",
        replay.pages,
        &on_path("html.clean", "clean_document"),
    );
    r.metric(
        "html.arena_peak_bytes",
        t.arena_peak as f64,
        "bytes",
        replay.pages,
        &on_path("html.parse", "PageParser arena high-water mark"),
    );
    r.metric(
        "segment.main_block.us_per_page",
        per_page("segment.main_block"),
        "us/page",
        replay.pages,
        &on_path("segment.main_block", "simplify_to_main_block"),
    );
    r.metric(
        "core.extract.us_per_page",
        per_page("core.extract"),
        "us/page",
        replay.pages,
        &on_path("core.extract", "Wrapper::extract_document"),
    );
    r.metric(
        "core.drift.us_per_page",
        l.us("core.drift") / calls("core.drift") as f64,
        "us/page",
        calls("core.drift"),
        &on_path("core.drift", "drift_score"),
    );
    r.metric("core.annotate.ms", mean_of(0), "ms", inductions, &stage);
    r.metric("core.sample.ms", mean_of(1), "ms", inductions, &stage);
    r.metric("core.wrap.ms", mean_of(2), "ms", inductions, &stage);
    r.metric(
        "core.wrap.reruns",
        replay.inductions.iter().map(|(_, r)| r).sum::<f64>() / inductions as f64,
        "count",
        inductions,
        &on_path("core.induce", "self-validation reruns per induction"),
    );
    r.metric(
        "core.repair.ms",
        l.mean_ms("core.repair"),
        "ms",
        calls("core.repair"),
        &on_path("core.repair", "repair_wrapper"),
    );
    r.metric(
        "core.treediff.ms",
        l.mean_ms("core.treediff"),
        "ms",
        calls("core.treediff"),
        &on_path("core.repair", "match_trees, on the repairs' pages"),
    );
    r.metric(
        "core.repair.declined_share",
        replay.declined as f64 / replay.repairs.len().max(1) as f64,
        "ratio",
        replay.repairs.len(),
        &on_path("core.repair", "repairs declined (re-induction follows)"),
    );
    r.metric(
        "knowledge.memo_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
        &on_path("core.induce", "Annotator cache hits / lookups"),
    );
    r.metric(
        "objstore.ingest.ms_per_call",
        l.mean_ms("objstore.ingest"),
        "ms/call",
        calls("objstore.ingest"),
        &on_path("objstore.ingest", "ObjectStore::ingest"),
    );
    r.metric(
        "objstore.ingest.records_written_per_offered",
        ratio("objstore.written", "objstore.offered"),
        "ratio",
        calls("objstore.offered"),
        &on_path("objstore.ingest", "records written / objects offered"),
    );
    r.metric(
        "objstore.query.scanned_per_hit",
        ratio("objstore.scanned", "objstore.hits"),
        "ratio",
        calls("objstore.query"),
        &on_path("objstore.query", "records scanned / hits"),
    );
    r.metric(
        "objstore.query.p99_ms",
        l.quantile_ms("objstore.query", 0.99),
        "ms",
        calls("objstore.query"),
        &on_path("objstore.query", "ObjectStore::query"),
    );
    r.metric(
        "objstore.get.p50_us",
        l.quantile_ms("objstore.get", 0.5) * 1e3,
        "us",
        calls("objstore.get"),
        &on_path("objstore.get", "ObjectStore::get"),
    );
    for &(name, value, unit) in &t.traffic {
        r.metric(
            name,
            value,
            unit,
            t.samples,
            "median over the crawl's own stream passes",
        );
    }
    for &(name, value, unit) in &t.probed {
        let note = match name {
            "objstore.bytes_per_live_object" => {
                on_path("objstore.ingest", "store bytes / live objects")
            }
            n if n.starts_with("core.stream.") => {
                on_path("core.stream", "extract_stream over the probe pages")
            }
            _ => "probe on this workload's pages".to_owned(),
        };
        r.metric(name, value, unit, 0, &note);
    }
    for &(name, value) in &t.shares {
        let note = match name.starts_with("share.serve.") {
            false => t.share_note.to_owned(),
            true if t.served_note.is_empty() => format!("residual, {}", t.share_note),
            true => format!("{}; this workload sends no requests", t.share_note),
        };
        r.metric(name, value, "%", t.samples, &note);
    }
}

pub fn run(ctx: &mut Ctx, w: Workload) -> Result<(), String> {
    let obs = Obs::with_capacity(1 << 20);
    let traced = match w {
        Workload::StreamCrawl => crawl(ctx, obs)?,
        _ => daemon_workload(ctx, w, obs)?,
    };
    emit(&mut ctx.report, &traced);

    // The spans, as JSONL and as a Chrome trace.
    std::fs::create_dir_all(&ctx.trace_dir)
        .map_err(|e| format!("{}: {e}", ctx.trace_dir.display()))?;
    let obs = &traced.replay.ledger.obs;
    let spans = obs.spans();
    let base = ctx.trace_dir.join(format!("{}-{}", w.name(), ctx.seed));
    let jsonl = base.with_extension("jsonl");
    let chrome = base.with_extension("trace.json");
    std::fs::write(&jsonl, export::events_jsonl(&spans, &obs.snapshot()))
        .map_err(|e| format!("{}: {e}", jsonl.display()))?;
    std::fs::write(&chrome, export::chrome_trace(&spans))
        .map_err(|e| format!("{}: {e}", chrome.display()))?;
    eprintln!(
        "ledger: {} spans written to {} and {}",
        spans.len(),
        jsonl.display(),
        chrome.display()
    );
    Ok(())
}
