//! `inspect` — developer tool: dump the full wrapper-induction state
//! for one corpus source (classes, template tree, gap annotations, SOD
//! mapping, and sample extractions).
//!
//! Usage: `cargo run --release -p objectrunner-eval --bin inspect -- <site-name> [--stats-json]`
//!
//! `--stats-json` appends one machine-readable line with the full
//! pipeline stats (per-stage wall/CPU timings included).

use objectrunner_core::annotate::Annotator;
use objectrunner_core::matching::match_sod;
use objectrunner_core::pipeline::{Pipeline, PipelineConfig};
use objectrunner_core::roles::{differentiate, DiffConfig};
use objectrunner_core::sample::{select_sample, SampleConfig, SampleStrategy};
use objectrunner_core::template::build_template;
use objectrunner_core::tokens::SourceTokens;
use objectrunner_html::{clean_document, parse, CleanOptions};
use objectrunner_webgen::{generate_site, knowledge, paper_corpus};

fn main() {
    let args = objectrunner_eval::parse_stats_json_flag(std::env::args().skip(1).collect());
    let name = args
        .first()
        .cloned()
        .unwrap_or_else(|| "towerrecords".into());
    let corpus = paper_corpus();
    let spec = corpus
        .sites
        .iter()
        .find(|s| s.name.contains(&name))
        .expect("site");
    println!(
        "site {} domain {:?} style {} quirks {:?} optional {}",
        spec.name, spec.domain, spec.style, spec.quirks, spec.optional_present
    );
    let source = generate_site(spec);
    let recognizers = knowledge::recognizers_for(spec.domain, 0.2);
    let sod = spec.domain.sod();
    // replicate pipeline steps
    let mut docs: Vec<_> = source
        .pages
        .iter()
        .map(|h| {
            let mut d = parse(h);
            clean_document(&mut d, &CleanOptions::default());
            d
        })
        .collect();
    let opts = objectrunner_segment::LayoutOptions::default();
    if let Some(choice) = objectrunner_segment::select_main_block(&docs, &opts) {
        for d in docs.iter_mut() {
            let _ = objectrunner_segment::simplify_to_main_block(d, &choice);
        }
    }
    let sample = select_sample(
        &docs,
        &recognizers,
        &Annotator::new(&recognizers),
        &sod,
        &SampleConfig {
            sample_size: 20,
            ..Default::default()
        },
        SampleStrategy::SodBased,
    )
    .expect("sample")
    .sample;
    let mut src = SourceTokens::from_pages(&sample);
    let cfg = DiffConfig {
        set_types: sod
            .set_entity_types()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        ..DiffConfig::default()
    };
    let outcome = differentiate(&mut src, &cfg, |_, _| false);
    println!(
        "rounds {} conflict_splits {}",
        outcome.rounds, outcome.conflict_splits
    );
    for c in &outcome.analysis.classes {
        let toks: Vec<String> = c
            .roles
            .iter()
            .map(|&r| src.roles.info(r).label.clone())
            .collect();
        println!(
            "class {} v[0..5] {:?} parent {:?} ({} roles) {:?}",
            c.id,
            &c.vector[..5.min(c.vector.len())],
            outcome.analysis.parent[c.id],
            c.roles.len(),
            toks.iter().take(14).collect::<Vec<_>>()
        );
    }
    let tree = build_template(&src, &outcome.analysis);
    for (i, n) in tree.nodes.iter().enumerate() {
        println!("node {} class {:?} mult {:?}", i, n.class, n.multiplicity);
        for (j, g) in n.gaps.iter().enumerate() {
            if g.kind() != objectrunner_core::template::GapKind::Empty {
                println!(
                    "  gap {j}: {:?} anns {:?} samples {:?}",
                    g.kind(),
                    g.annotations,
                    &g.samples[..3.min(g.samples.len())]
                );
            }
        }
    }
    match match_sod(&tree, &sod) {
        Ok(m) => {
            println!(
                "MATCH anchor {} repeats {}",
                m.record.anchor, m.record_repeats
            );
            for (t, g) in &m.record.atomics {
                println!("  atomic {t} -> node {} gap {}", g.node, g.gap);
            }
            for s in &m.record.sets {
                println!("  set: {:?}", s);
            }
        }
        Err(e) => println!("MATCH FAILED: {e}"),
    }
    // full pipeline objects on page 0
    let pipeline = Pipeline::new(sod.clone(), recognizers).with_config(PipelineConfig::default());
    match pipeline.run_on_html(&source.pages) {
        Ok(o) => {
            println!(
                "pipeline: {} objects (truth {})",
                o.objects.len(),
                source.object_count()
            );
            for obj in o.objects.iter().take(4) {
                println!("  {obj}");
            }
            println!("truth[0][0]: {:?}", source.truth[0][0].attrs);
            if objectrunner_eval::stats_json_enabled() {
                println!(
                    "{}",
                    objectrunner_obs::export::stats_json_line(
                        &spec.name,
                        "OR",
                        &o.stats.snapshot()
                    )
                );
            }
        }
        Err(e) => println!("pipeline error: {e}"),
    }
}
