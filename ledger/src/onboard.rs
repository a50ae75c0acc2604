//! `onboard-drift`: fresh sources brought onto an empty daemon and then
//! carried through a template redesign, closed loop on one connection.
//!
//! Each source gets `induce` on 20 pages, two cached extracts (2 and 8
//! pages), and an 8-page batch rendered through a separator-tier drift
//! (0.25), which turns the wrapper stale and triggers tree-diff repair.
//! Every fourth source then gets an 8-page container-tier batch (0.8),
//! where repair is declined and the daemon re-induces. Annotation,
//! sampling, wrapper generation, tree diff and wrapper persistence do
//! most of the work; the extract stages do little, and the induce
//! responses are large.
//!
//! A source's onboarding time runs from its `induce` being sent to the
//! answer to its last batch. After the measured loop, an in-process
//! service replays the same sequence serially on a fresh store, and
//! every daemon response must equal its replayed counterpart.

use crate::inputs::{extract_line, generate, induce_line, mixed_spec, wire, Rng, Source};
use crate::net::{Client, Completion};
use crate::serving::{self, Pooled, DRAIN};
use crate::stats;
use crate::Ctx;
use crate::{check, fleet};
use objectrunner_webgen::{Domain, SiteSpec};
use std::time::{Duration, Instant};

/// Pages of the two cached extracts.
pub const EXTRACTS: [usize; 2] = [2, 8];
pub const DRIFT_PAGES: usize = 8;
/// Separator-tier drift: cell tags change; repair absorbs it.
pub const SEPARATOR: f64 = 0.25;
/// Container-tier drift: the list container changes; repair is
/// declined and the daemon re-induces.
pub const CONTAINER: f64 = 0.8;

/// One request of the sequence.
pub struct Step {
    pub source: usize,
    pub line: Vec<u8>,
    pub pages: usize,
}

/// Fresh source `k` (its clean pages) and its request sequence.
pub fn source_steps(seed: u64, k: usize) -> (Source, Vec<Step>) {
    let mut rng = Rng::fork(seed, &format!("onboard-{k}"));
    let name = format!("onboard-{k:03}");
    let domain = Domain::ALL[k % Domain::ALL.len()];
    let spec = mixed_spec(&name, domain, fleet::INDUCE_PAGES, k, &mut rng);
    let drifted = |strength: f64| {
        let spec = SiteSpec {
            pages: 2 * DRIFT_PAGES,
            ..spec.clone()
        };
        generate(&name, spec, strength).pages
    };
    let clean = generate(&name, spec.clone(), 0.0).pages;
    let mut steps = Vec::new();
    let mut push = |line: String, pages: usize| {
        steps.push(Step {
            source: k,
            line: wire(line),
            pages,
        })
    };
    push(induce_line(&name, domain, &clean), fleet::INDUCE_PAGES);
    for n in EXTRACTS {
        push(extract_line(&name, &clean[..n]), n);
    }
    push(
        extract_line(&name, &drifted(SEPARATOR)[..DRIFT_PAGES]),
        DRIFT_PAGES,
    );
    if k % 4 == 3 {
        push(
            extract_line(&name, &drifted(CONTAINER)[DRIFT_PAGES..]),
            DRIFT_PAGES,
        );
    }
    let source = Source {
        name,
        domain,
        spec,
        pages: clean,
    };
    (source, steps)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let store = ctx.path("store");
    let args = vec!["--store".to_owned(), store.display().to_string()];
    // An empty daemon is set up once `status` answers.
    let status = Pooled {
        line: wire("{\"cmd\":\"status\"}".to_owned()),
        pages: 0,
        reference: None,
    };
    let (daemon, setup) = serving::cold_starts(ctx, &args, &[status])?;

    // Source after source, one request at a time, until the time is
    // up. A source's pages are generated before its first request is
    // sent, outside every timed interval.
    let mut client = Client::connect(daemon.addr, 1).map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + ctx.span(1.0);
    let mut steps: Vec<Step> = Vec::new();
    let mut done: Vec<Completion> = Vec::new();
    let mut busy = Duration::ZERO;
    let max_sources = if ctx.smoke { 2 } else { usize::MAX };
    for k in 0..max_sources {
        if Instant::now() >= deadline {
            break;
        }
        let first = steps.len();
        steps.extend(source_steps(ctx.seed, k).1);
        let started = Instant::now();
        for (id, step) in steps.iter().enumerate().skip(first) {
            let answer = client
                .call(id, &step.line, DRAIN)
                .map_err(|e| format!("onboarding request {id}: {e}"))?;
            done.push(answer);
        }
        busy += started.elapsed();
    }
    let rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    drop(daemon);

    // The serial replay every response must equal.
    let replay = fleet::service(&ctx.path("replay"), None);
    let mut repaired = 0;
    let mut reinduced = 0;
    for c in &done {
        let line = std::str::from_utf8(&steps[c.id].line).expect("utf-8 request");
        let want = replay.handle_line(line.trim_end());
        repaired += c.response.contains("\"repaired\":true") as usize;
        reinduced += c.response.contains("\"reinduced\":true") as usize;
        ctx.report
            .answered(&c.response, check::same(&c.response, &want));
    }

    // Onboarding time per completed source.
    let mut per_source: Vec<f64> = Vec::new();
    let mut first = 0;
    for k in 1..=done.len() {
        if k == done.len() || steps[k].source != steps[k - 1].source {
            per_source.push(stats::ms(done[k - 1].done.duration_since(done[first].sent)));
            first = k;
        }
    }
    let latency = stats::sorted(per_source);
    let pages: usize = done.iter().map(|c| steps[c.id].pages).sum();
    let sources = latency.len();
    eprintln!("ledger: onboarded {sources} sources: {repaired} repairs, {reinduced} re-inductions");
    let r = &mut ctx.report;
    r.metric(
        "setup_s",
        stats::median(&setup),
        "s",
        setup.len(),
        "median spawn until status answers",
    );
    let note = "time to onboard one source, closed loop on one connection";
    r.metric(
        "p50_ms",
        stats::quantile(&latency, 0.5),
        "ms",
        sources,
        note,
    );
    r.metric(
        "tail_ms",
        stats::quantile(&latency, crate::TAIL),
        "ms",
        sources,
        &format!("p90, {note}"),
    );
    r.metric(
        "pages_per_s",
        pages as f64 / busy.as_secs_f64(),
        "1/s",
        done.len(),
        "pages of every request over the time sources were in flight",
    );
    r.metric("peak_rss_mb", rss, "MB", 0, "daemon VmHWM");
    Ok(())
}
