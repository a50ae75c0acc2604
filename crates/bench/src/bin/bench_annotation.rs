//! Annotation-stage trajectory point (`BENCH_annotation.json`).
//!
//! For every domain of the standard bench corpus (20 pages each), this
//! measures:
//!
//! * `naive_micros` — the retained naive path: per-type
//!   `annotate_type_into` rounds + upward propagation over every page;
//! * `compiled_cold_micros` — the same work through a fresh
//!   [`Annotator`] (compiled engines, empty memo);
//! * `compiled_warm_micros` — a second pass over the same annotator
//!   (every text a memo hit);
//! * the pipeline's `Annotate` stage CPU at `threads = 1` and its
//!   cache hit rate, from `PipelineStats`;
//! * the observability tax: full-pipeline wall (best of 5) with the
//!   obs layer disabled vs enabled — `obs_overhead_ok` asserts the
//!   enabled run stays within 2% (+500 µs timer slack) of disabled,
//!   the budget ci.sh's `obs-smoke` stage enforces.
//!
//! Output is one JSON document on stdout; `ci.sh` redirects it into
//! `BENCH_annotation.json` at the repository root.

use objectrunner_bench::{bench_config, bench_source, run_pipeline};
use objectrunner_core::annotate::{
    annotate_type_into, propagate_upwards_into, AnnotationMap, Annotator,
};
use objectrunner_core::stage::Stage;
use objectrunner_html::{clean_document, parse, CleanOptions, Document};
use objectrunner_knowledge::recognizer::RecognizerSet;
use objectrunner_webgen::{knowledge, Domain};
use std::hint::black_box;
use std::time::Instant;

const PAGES: usize = 20;

/// `Annotate` stage CPU (threads = 1) of the seed revision (naive
/// recognizers, allocation-heavy normalize, depth-sorted propagation)
/// on this corpus, measured on the reference machine before this
/// engine landed — the fixed "before" of the trajectory. Order matches
/// [`Domain::ALL`].
const SEED_STAGE_MICROS: [u128; 5] = [12_127, 11_040, 10_902, 11_684, 1_235];

fn docs_for(domain: Domain) -> Vec<Document> {
    bench_source(domain, PAGES)
        .pages
        .iter()
        .map(|h| {
            let mut d = parse(h);
            clean_document(&mut d, &CleanOptions::default());
            d
        })
        .collect()
}

fn naive_all(docs: &[Document], set: &RecognizerSet) {
    for doc in docs {
        let mut map = AnnotationMap::new();
        for type_name in set.annotation_order() {
            annotate_type_into(doc, &mut map, set, type_name);
        }
        propagate_upwards_into(doc, &mut map);
        black_box(&map);
    }
}

fn compiled_all(docs: &[Document], set: &RecognizerSet, annotator: &Annotator) {
    let types = set.annotation_order();
    for doc in docs {
        let mut map = AnnotationMap::new();
        annotator.annotate_types_into(doc, &mut map, &types);
        propagate_upwards_into(doc, &mut map);
        black_box(&map);
    }
}

fn micros(f: impl FnOnce()) -> u128 {
    let t = Instant::now();
    f();
    t.elapsed().as_micros()
}

/// Full-pipeline wall with the given obs handle.
fn pipeline_wall_micros(
    domain: Domain,
    source: &objectrunner_webgen::Source,
    obs: &objectrunner_obs::Obs,
) -> u128 {
    let mut cfg = bench_config();
    cfg.obs = obs.clone();
    micros(|| {
        black_box(run_pipeline(domain, source, cfg));
    })
}

/// Best-of-5 pipeline wall, obs disabled vs enabled, on the first
/// bench domain. Min-of-N damps scheduler noise; the enabled handle is
/// reused across repetitions like a long-lived daemon's would be, and
/// carries the full live-telemetry stack the serving daemon runs with:
/// sliding windows behind every histogram, plus — inside the timed
/// window, once per run — the per-request serving-side work of a
/// windowed slow-threshold probe, a tail-sampler offer, and one
/// structured access-log line.
fn obs_overhead() -> (u128, u128) {
    let domain = Domain::ALL[0];
    let source = bench_source(domain, PAGES);
    let disabled = (0..5)
        .map(|_| pipeline_wall_micros(domain, &source, &objectrunner_obs::Obs::disabled()))
        .min()
        .unwrap();
    let enabled_obs = objectrunner_obs::Obs::with_windows(
        objectrunner_obs::Clock::system(),
        objectrunner_obs::DEFAULT_SPAN_CAPACITY,
        objectrunner_obs::WindowConfig::default(),
    );
    let sampler = objectrunner_serve::TraceSampler::new(16);
    let log_path = std::env::temp_dir().join(format!(
        "objectrunner-bench-annotation-{}-access.jsonl",
        std::process::id()
    ));
    let access = objectrunner_serve::AccessLog::open(&log_path, 1 << 20).expect("access log");
    let enabled = (0..5)
        .map(|_| {
            let mut cfg = bench_config();
            cfg.obs = enabled_obs.clone();
            micros(|| {
                black_box(run_pipeline(domain, &source, cfg));
                let span = enabled_obs.trace("bench.request");
                let trace = span.trace_id();
                span.finish();
                enabled_obs.histogram_record(
                    objectrunner_serve::REQUEST_LATENCY,
                    &objectrunner_obs::LATENCY_BUCKETS_MICROS,
                    1_000,
                );
                let now = enabled_obs.clock().map_or(0, |c| c.monotonic_micros());
                black_box(
                    enabled_obs
                        .windows()
                        .and_then(|w| w.get(objectrunner_serve::REQUEST_LATENCY))
                        .map(|w| w.snapshot(now, 60_000_000).quantile(0.99)),
                );
                sampler.offer(
                    &enabled_obs,
                    objectrunner_serve::TraceKind::Slow,
                    trace,
                    1_000,
                    0,
                );
                access.write_line(&format!("{{\"trace\":{trace},\"outcome\":\"ok\"}}"));
            })
        })
        .min()
        .unwrap();
    let _ = std::fs::remove_file(access.rotated_path());
    let _ = std::fs::remove_file(&log_path);
    (disabled, enabled)
}

fn main() {
    let mut rows = Vec::new();
    let mut total_naive = 0u128;
    let mut total_cold = 0u128;
    let mut total_stage = 0u128;
    for (di, domain) in Domain::ALL.into_iter().enumerate() {
        let docs = docs_for(domain);
        let set = knowledge::recognizers_for(domain, 0.2);

        let naive = micros(|| naive_all(&docs, &set));
        let annotator = Annotator::new(&set);
        let cold = micros(|| compiled_all(&docs, &set, &annotator));
        let warm = micros(|| compiled_all(&docs, &set, &annotator));

        // The staged pipeline's own accounting.
        let source = bench_source(domain, PAGES);
        let outcome = run_pipeline(domain, &source, bench_config());
        let stage = outcome
            .stats
            .stage(Stage::Annotate)
            .expect("annotate stage timed");
        let hits = outcome.stats.annotation_cache_hits;
        let misses = outcome.stats.annotation_cache_misses;
        let hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let pages_per_sec = if cold > 0 {
            PAGES as f64 / (cold as f64 / 1_000_000.0)
        } else {
            0.0
        };

        total_naive += naive;
        total_cold += cold;
        total_stage += stage.cpu_micros;
        rows.push(format!(
            "    {{\"domain\":\"{}\",\"pages\":{PAGES},\"naive_micros\":{naive},\
\"compiled_cold_micros\":{cold},\"compiled_warm_micros\":{warm},\
\"speedup_vs_naive\":{:.2},\"pages_per_sec\":{:.1},\
\"pipeline_annotate_stage_micros\":{},\"seed_annotate_stage_micros\":{},\
\"speedup_vs_seed\":{:.2},\"cache_hit_rate\":{:.3}}}",
            domain.name(),
            naive as f64 / cold.max(1) as f64,
            pages_per_sec,
            stage.cpu_micros,
            SEED_STAGE_MICROS[di],
            SEED_STAGE_MICROS[di] as f64 / stage.cpu_micros.max(1) as f64,
            hit_rate,
        ));
    }
    println!("{{");
    println!("  \"bench\": \"annotation\",");
    println!("  \"threads\": 1,");
    println!(
        "  \"aggregate_speedup_vs_naive\": {:.2},",
        total_naive as f64 / total_cold.max(1) as f64
    );
    println!(
        "  \"aggregate_speedup_vs_seed\": {:.2},",
        SEED_STAGE_MICROS.iter().sum::<u128>() as f64 / total_stage.max(1) as f64
    );
    let (obs_disabled, obs_enabled) = obs_overhead();
    let overhead_pct = (obs_enabled as f64 / obs_disabled.max(1) as f64 - 1.0) * 100.0;
    let obs_ok = obs_enabled as f64 <= obs_disabled as f64 * 1.02 + 500.0;
    println!("  \"obs_disabled_micros\": {obs_disabled},");
    println!("  \"obs_enabled_micros\": {obs_enabled},");
    println!("  \"obs_overhead_pct\": {overhead_pct:.2},");
    println!("  \"obs_overhead_ok\": {obs_ok},");
    println!("  \"domains\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
