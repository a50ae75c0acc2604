//! Determinism guard for the observability layer.
//!
//! Span parenthood is explicit and every span of a pipeline run is
//! allocated on the coordinator thread, so the JSONL event stream of a
//! `threads = 8` run must be **byte-identical** to a `threads = 1` run
//! once time-dependent values are normalized away: span timings
//! (`start_us`/`dur_us`/`cpu_us`), timing counters (`*_micros`), the
//! thread-count gauge, and the memo hit/miss split (total lookups stay
//! pinned — only the hit/miss partition is scheduling-dependent).
//!
//! The Chrome exporter's output is additionally validated against the
//! `trace_event` schema `obs_check chrome` enforces, and the metrics
//! registry is checked via snapshot *diffs*: a cached `extract_only`
//! run must not move any induction-stage metric.

use objectrunner::core::pipeline::{extract_only_with, Pipeline, PipelineConfig};
use objectrunner::core::sample::SampleConfig;
use objectrunner::eval::obs_check::{validate_chrome_trace, validate_events_jsonl};
use objectrunner::obs::{export, Obs};
use objectrunner::webgen::{generate_site, knowledge, Domain, PageKind, SiteSpec};

/// The determinism suite's golden corpus (same specs as
/// `determinism.rs` / `golden_equivalence.rs`).
fn golden_corpus(domain: Domain, index: usize) -> Vec<String> {
    let spec = SiteSpec::clean(
        &format!("golden-{}", domain.name()),
        domain,
        PageKind::List,
        15,
        17_000 + index as u64,
    );
    generate_site(&spec).pages
}

fn config(threads: usize, obs: &Obs) -> PipelineConfig {
    PipelineConfig {
        threads: Some(threads),
        sample: SampleConfig {
            sample_size: 12,
            ..SampleConfig::default()
        },
        obs: obs.clone(),
        ..PipelineConfig::default()
    }
}

/// Run the first two golden domains through one fresh obs handle and
/// export the event stream.
fn events_at(threads: usize) -> String {
    let obs = Obs::enabled();
    for (i, domain) in [Domain::ALL[0], Domain::ALL[1]].into_iter().enumerate() {
        let pages = golden_corpus(domain, i);
        Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
            .with_config(config(threads, &obs))
            .run_on_html(&pages)
            .expect("golden corpus wraps");
    }
    export::events_jsonl(&obs.spans(), &obs.snapshot())
}

/// Replace `"key":<int>` with `"key":0` everywhere in a line.
fn zero_key(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find(&needle) {
        let after = pos + needle.len();
        out.push_str(&rest[..after]);
        let tail = &rest[after..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '-'))
            .unwrap_or(tail.len());
        out.push('0');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Normalize the scheduling-dependent values out of an event stream.
fn normalize(events: &str) -> String {
    events
        .lines()
        .map(|line| {
            if line.contains("\"type\":\"span\"") {
                let mut l = line.to_owned();
                for key in ["start_us", "dur_us", "cpu_us"] {
                    l = zero_key(&l, key);
                }
                l
            } else if line.contains("micros")
                || line.contains("exec.threads")
                || line.contains("cache_hits")
                || line.contains("cache_misses")
            {
                zero_key(line, "value")
            } else {
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn jsonl_event_stream_is_identical_across_thread_counts() {
    let sequential = events_at(1);
    let parallel = events_at(8);
    validate_events_jsonl(&sequential).expect("threads=1 stream is schema-valid");
    validate_events_jsonl(&parallel).expect("threads=8 stream is schema-valid");
    let (a, b) = (normalize(&sequential), normalize(&parallel));
    if a != b {
        for (la, lb) in a.lines().zip(b.lines()) {
            assert_eq!(la, lb, "first divergent event line");
        }
        panic!(
            "streams differ in length: {} vs {} lines",
            a.lines().count(),
            b.lines().count()
        );
    }
}

#[test]
fn chrome_trace_export_satisfies_the_trace_event_schema() {
    let obs = Obs::enabled();
    let pages = golden_corpus(Domain::ALL[0], 0);
    Pipeline::new(
        Domain::ALL[0].sod(),
        knowledge::recognizers_for(Domain::ALL[0], 0.2),
    )
    .with_config(config(2, &obs))
    .run_on_html(&pages)
    .expect("golden corpus wraps");
    let trace = export::chrome_trace(&obs.spans());
    let events = validate_chrome_trace(&trace).expect("Perfetto-loadable trace");
    // pipeline.induce + 7 stage spans + sample.rerun, at minimum.
    assert!(events >= 9, "only {events} trace events");
}

#[test]
fn snapshot_diff_shows_no_induction_stages_on_the_cached_path() {
    let obs = Obs::enabled();
    let domain = Domain::ALL[0];
    let pages = golden_corpus(domain, 0);
    let cfg = config(2, &obs);
    let clean = cfg.clean.clone();
    let outcome = Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
        .with_config(cfg)
        .run_on_html(&pages)
        .expect("golden corpus wraps");

    let base = obs.snapshot();
    extract_only_with(
        &outcome.wrapper,
        outcome.main_block.as_ref(),
        &clean,
        &pages,
        Some(2),
        &obs,
        None,
        None,
    );
    let diff = obs.snapshot().diff(&base);

    assert_eq!(
        diff.counter("objectrunner.core.pipeline.extract_only_runs"),
        1
    );
    assert_eq!(diff.counter("objectrunner.core.pipeline.induce_runs"), 0);
    for stage in ["annotate", "sample", "sample.rerun", "wrap"] {
        assert_eq!(
            diff.counter(&format!("objectrunner.core.stage.{stage}.wall_micros")),
            0,
            "{stage} ran on the cached path"
        );
        assert_eq!(
            diff.counter(&format!("objectrunner.core.stage.{stage}.cpu_micros")),
            0,
            "{stage} burned CPU on the cached path"
        );
    }
    assert!(
        diff.counter("objectrunner.core.stage.extract.wall_micros") > 0
            || diff.counter("objectrunner.core.pipeline.extract_only_runs") == 1,
        "extract stage accounted"
    );
}
