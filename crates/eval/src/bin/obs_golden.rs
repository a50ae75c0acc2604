//! `obs_golden` — run the golden corpus (the same specs the
//! determinism suite pins) with observability enabled, then write the
//! canonical exporter artifacts:
//!
//! * `events.jsonl` — one event per line: finished spans, then the
//!   metrics snapshot (validated by `obs_check jsonl`);
//! * `trace.json` — Chrome `trace_event` JSON, loadable in Perfetto /
//!   `chrome://tracing` (validated by `obs_check chrome`);
//! * `snapshot.json` — the metrics registry alone, diffable against
//!   `results/obs_baseline.json` by `obs_check diff`.
//!
//! The ci.sh `obs-smoke` stage runs this binary and then `obs_check`
//! over its output.
//!
//! Usage: `obs_golden [--out DIR]`

use objectrunner_core::pipeline::{Pipeline, PipelineConfig};
use objectrunner_core::sample::SampleConfig;
use objectrunner_obs::{export, Obs};
use objectrunner_webgen::{generate_site, knowledge, Domain, PageKind, SiteSpec};
use std::path::{Path, PathBuf};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn write(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("obs_golden: write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("obs_golden: wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = PathBuf::from(flag(&args, "--out").unwrap_or_else(|| "results/obs".into()));

    let obs = Obs::enabled();
    // Ambient build-level counters (html parse/clean, segment scoring,
    // knowledge compilation) flow into the same registry.
    objectrunner_obs::set_global(obs.clone());

    for (i, domain) in Domain::ALL.into_iter().enumerate() {
        let spec = SiteSpec::clean(
            &format!("golden-{}", domain.name()),
            domain,
            PageKind::List,
            15,
            17_000 + i as u64,
        );
        let pages = generate_site(&spec).pages;
        let config = PipelineConfig {
            sample: SampleConfig {
                sample_size: 12,
                ..SampleConfig::default()
            },
            obs: obs.clone(),
            ..PipelineConfig::default()
        };
        let pipeline = Pipeline::new(domain.sod(), knowledge::recognizers_for(domain, 0.2))
            .with_config(config);
        match pipeline.run_on_html(&pages) {
            Ok(o) => eprintln!(
                "obs_golden: {} — {} objects from {} pages",
                domain.name(),
                o.objects.len(),
                pages.len()
            ),
            Err(e) => {
                eprintln!("obs_golden: {} failed: {e}", domain.name());
                std::process::exit(1);
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("obs_golden: create {}: {e}", out.display());
        std::process::exit(1);
    }
    let spans = obs.spans();
    let snapshot = obs.snapshot();
    write(
        &out.join("events.jsonl"),
        &export::events_jsonl(&spans, &snapshot),
    );
    write(&out.join("trace.json"), &export::chrome_trace(&spans));
    write(&out.join("snapshot.json"), &snapshot.to_json());
    print!("{}", export::report(&spans, &snapshot));
}
