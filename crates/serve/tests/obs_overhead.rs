//! The observability tax stays within budget.
//!
//! A full pipeline run on a 20-page Concerts source, best of 5, with
//! observability disabled against the full live stack the daemon runs
//! with: sliding windows behind every histogram, plus, inside the timed
//! window, the per-request serving work of one request span, a
//! windowed slow-threshold probe, a tail-sampler offer and one
//! access-log line. The enabled run must stay within 2% (+500 µs of
//! timer slack) of the disabled one. The handle is reused across
//! repetitions, as a long-lived daemon's would be.
//!
//! The budget was set on release builds; run it with
//! `cargo test --release -p objectrunner-serve --test obs_overhead`.
//! This file holds one test so that no other test competes for the CPU.

use objectrunner_core::pipeline::{Pipeline, PipelineConfig};
use objectrunner_core::sample::SampleConfig;
use objectrunner_obs::{Clock, Obs, WindowConfig, DEFAULT_SPAN_CAPACITY, LATENCY_BUCKETS_MICROS};
use objectrunner_serve::{AccessLog, TraceKind, TraceSampler, REQUEST_LATENCY};
use objectrunner_webgen::{generate_site, knowledge, Domain, PageKind, SiteSpec};
use std::hint::black_box;
use std::time::Instant;

const DOMAIN: Domain = Domain::Concerts;
const PAGES: usize = 20;

/// Wall time of building the pipeline and running it with the given
/// handle, plus whatever `after` does inside the same timed window.
fn run_micros(pages: &[String], obs: &Obs, after: impl FnOnce()) -> u128 {
    let config = PipelineConfig {
        sample: SampleConfig {
            sample_size: 20,
            ..SampleConfig::default()
        },
        obs: obs.clone(),
        ..PipelineConfig::default()
    };
    let start = Instant::now();
    let pipeline =
        Pipeline::new(DOMAIN.sod(), knowledge::recognizers_for(DOMAIN, 0.2)).with_config(config);
    black_box(pipeline.run_on_html(pages).expect("source wraps"));
    after();
    start.elapsed().as_micros()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the budget is set on release builds: \
              cargo test --release -p objectrunner-serve --test obs_overhead"
)]
fn live_telemetry_costs_at_most_two_percent_of_a_pipeline_run() {
    // The source the recorded `BENCH_annotation.json` overhead run used.
    let pages = generate_site(&SiteSpec::clean(
        &format!("bench-{}", DOMAIN.name()),
        DOMAIN,
        PageKind::List,
        PAGES,
        0xbe9c + PAGES as u64,
    ))
    .pages;

    let disabled = (0..5)
        .map(|_| run_micros(&pages, &Obs::disabled(), || {}))
        .min()
        .expect("five runs");

    let obs = Obs::with_windows(
        Clock::system(),
        DEFAULT_SPAN_CAPACITY,
        WindowConfig::default(),
    );
    let sampler = TraceSampler::new(16);
    let log_path = std::env::temp_dir().join(format!(
        "objectrunner-obs-overhead-{}-access.jsonl",
        std::process::id()
    ));
    let access = AccessLog::open(&log_path, 1 << 20).expect("access log");
    let enabled = (0..5)
        .map(|_| {
            run_micros(&pages, &obs, || {
                let span = obs.trace("overhead.request");
                let trace = span.trace_id();
                span.finish();
                obs.histogram_record(REQUEST_LATENCY, &LATENCY_BUCKETS_MICROS, 1_000);
                let now = obs.clock().map_or(0, |c| c.monotonic_micros());
                black_box(
                    obs.windows()
                        .and_then(|w| w.get(REQUEST_LATENCY))
                        .map(|w| w.snapshot(now, 60_000_000).quantile(0.99)),
                );
                sampler.offer(&obs, TraceKind::Slow, trace, 1_000, 0);
                access.write_line(&format!("{{\"trace\":{trace},\"outcome\":\"ok\"}}"));
            })
        })
        .min()
        .expect("five runs");
    let _ = std::fs::remove_file(access.rotated_path());
    let _ = std::fs::remove_file(&log_path);

    assert!(
        enabled as f64 <= disabled as f64 * 1.02 + 500.0,
        "observability overhead over budget: enabled {enabled} µs vs disabled {disabled} µs"
    );
}
