//! Appendix B: the effect of the support parameter (3–5) and the
//! self-validation loop on publication-like sources.

use objectrunner_core::sample::SampleStrategy;
use objectrunner_eval::runners::run_objectrunner_custom;
use objectrunner_eval::tables::domain_precision;
use objectrunner_webgen::{knowledge, paper_corpus, Domain};

fn main() {
    objectrunner_eval::parse_stats_json_flag(std::env::args().skip(1).collect());
    eprintln!("generating publication sources…");
    let corpus = paper_corpus();
    let sources: Vec<_> = corpus
        .sites
        .iter()
        .filter(|s| s.domain == Domain::Publications)
        .map(objectrunner_webgen::generate_site)
        .collect();

    println!("APPENDIX B — SUPPORT PARAMETER SWEEP (Publications, %)");
    println!("{:<22} {:>8} {:>8}", "Support", "Pc", "Pp");
    for support in 3..=5usize {
        let reports: Vec<_> = sources
            .iter()
            .map(|s| {
                run_objectrunner_custom(
                    s,
                    SampleStrategy::SodBased,
                    knowledge::recognizers_for(Domain::Publications, 0.2),
                    (support, support),
                )
                .report
            })
            .collect();
        let (pc, pp) = domain_precision(&reports.iter().collect::<Vec<_>>());
        println!(
            "{:<22} {:>8.2} {:>8.2}",
            format!("fixed {support}"),
            pc * 100.0,
            pp * 100.0
        );
    }
    // The self-validation loop varies support automatically (3–5).
    let reports: Vec<_> = sources
        .iter()
        .map(|s| {
            run_objectrunner_custom(
                s,
                SampleStrategy::SodBased,
                knowledge::recognizers_for(Domain::Publications, 0.2),
                (3, 5),
            )
            .report
        })
        .collect();
    let (pc, pp) = domain_precision(&reports.iter().collect::<Vec<_>>());
    println!(
        "{:<22} {:>8.2} {:>8.2}",
        "auto (3–5 loop)",
        pc * 100.0,
        pp * 100.0
    );
}
