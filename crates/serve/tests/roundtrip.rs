//! Store round-trip properties over the golden corpus: the save fixed
//! point, loaded-wrapper extraction fidelity, corruption detection,
//! and — via the `extract-file` subcommand — cold-process fidelity
//! (a wrapper loaded into a fresh process with empty interner tables
//! extracts byte-identical objects).

use objectrunner_core::pipeline::{extract_only, Pipeline, PipelineConfig};
use objectrunner_core::sample::SampleConfig;
use objectrunner_core::wrapper::{repair_wrapper, RepairConfig};
use objectrunner_serve::instance_json;
use objectrunner_store::{load, save, save_file, RepairProvenance, StoreError, StoredWrapper};
use objectrunner_webgen::knowledge::recognizers_for;
use objectrunner_webgen::{generate_drifted, generate_site, Domain, PageKind, SiteSpec, Source};
use proptest::prelude::*;
use std::path::PathBuf;

/// The serving golden corpus: one clean list source per domain.
fn golden_specs() -> Vec<SiteSpec> {
    Domain::ALL
        .iter()
        .enumerate()
        .map(|(i, &domain)| {
            SiteSpec::clean(
                &format!("golden-{}", domain.name().to_lowercase()),
                domain,
                PageKind::List,
                15,
                17_000 + i as u64,
            )
        })
        .collect()
}

fn induce(source: &Source) -> StoredWrapper {
    let domain = source.spec.domain;
    let config = PipelineConfig {
        sample: SampleConfig {
            sample_size: 12,
            ..SampleConfig::default()
        },
        threads: Some(2),
        ..PipelineConfig::default()
    };
    let clean = config.clean.clone();
    let pipeline = Pipeline::new(domain.sod(), recognizers_for(domain, 0.2)).with_config(config);
    let outcome = pipeline
        .run_on_html(&source.pages)
        .expect("golden source must induce");
    StoredWrapper {
        source: source.spec.name.clone(),
        domain: domain.name().to_lowercase(),
        revision: 1,
        sod: domain.sod(),
        wrapper: outcome.wrapper,
        main_block: outcome.main_block,
        clean,
        repair: None,
    }
}

/// Canonical rendering of a source's extraction under a wrapper.
fn extraction_lines(stored: &StoredWrapper, pages: &[String]) -> Vec<String> {
    extract_only(
        &stored.wrapper,
        stored.main_block.as_ref(),
        &stored.clean,
        pages,
        Some(2),
    )
    .objects()
    .iter()
    .map(|o| instance_json(o).render())
    .collect()
}

/// A unique scratch directory (no tempfile crate in the workspace).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "objectrunner-roundtrip-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn save_load_save_is_a_fixed_point_on_the_golden_corpus() {
    for spec in golden_specs() {
        let stored = induce(&generate_site(&spec));
        let first = save(&stored);
        let reloaded = load(&first).expect("saved wrapper must load");
        let second = save(&reloaded);
        assert_eq!(first, second, "fixed point broken for {}", spec.name);
    }
}

#[test]
fn loaded_wrapper_extracts_identical_objects() {
    for spec in golden_specs() {
        let source = generate_site(&spec);
        let stored = induce(&source);
        let reloaded = load(&save(&stored)).expect("load");
        assert_eq!(
            extraction_lines(&stored, &source.pages),
            extraction_lines(&reloaded, &source.pages),
            "extraction diverged after round trip for {}",
            spec.name
        );
    }
}

#[test]
fn corruption_is_detected_before_parsing() {
    let spec = &golden_specs()[0];
    let stored = induce(&generate_site(spec));
    let good = save(&stored);

    // Flip one payload byte.
    let newline = good.find('\n').unwrap();
    let mut flipped = good.clone().into_bytes();
    flipped[newline + 10] ^= 0x01;
    let flipped = String::from_utf8(flipped).unwrap();
    assert!(matches!(load(&flipped), Err(StoreError::Corrupt { .. })));

    // Truncate the payload.
    let truncated = &good[..good.len() - 5];
    assert!(matches!(load(truncated), Err(StoreError::Corrupt { .. })));

    // Wrong magic.
    assert!(matches!(
        load(&good.replacen("ORWRAP", "NOTFMT", 1)),
        Err(StoreError::BadHeader)
    ));

    // Future format version.
    assert!(matches!(
        load(&good.replacen("ORWRAP v2 ", "ORWRAP v9 ", 1)),
        Err(StoreError::UnsupportedVersion(9))
    ));

    // The pristine bytes still load.
    assert!(load(&good).is_ok());
}

#[test]
fn cold_process_extraction_is_byte_identical() {
    let spec = &golden_specs()[0];
    let source = generate_site(spec);
    let stored = induce(&source);
    let expected = extraction_lines(&stored, &source.pages);
    assert!(!expected.is_empty(), "golden source must yield objects");

    let dir = scratch_dir("cold");
    let wrapper_path = dir.join("wrapper.orw");
    save_file(&wrapper_path, &stored).expect("persist wrapper");
    let pages_dir = dir.join("pages");
    std::fs::create_dir_all(&pages_dir).unwrap();
    for (i, page) in source.pages.iter().enumerate() {
        std::fs::write(pages_dir.join(format!("page-{i:03}.html")), page).unwrap();
    }

    // A fresh process: its interner tables start empty, so this only
    // passes if the store format is truly self-contained.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_objectrunner-serve"))
        .args(["extract-file", "--wrapper"])
        .arg(&wrapper_path)
        .arg("--pages")
        .arg(&pages_dir)
        .output()
        .expect("run objectrunner-serve");
    assert!(
        output.status.success(),
        "extract-file failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let cold: Vec<String> = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(expected, cold, "cold-process extraction diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The streaming subcommand must print exactly the `extract-file`
/// objects, just grouped one line per page — same wrapper, same pages,
/// both in cold processes.
#[test]
fn extract_stream_subcommand_matches_extract_file() {
    let spec = &golden_specs()[1];
    let source = generate_site(spec);
    let stored = induce(&source);

    let dir = scratch_dir("stream");
    let wrapper_path = dir.join("wrapper.orw");
    save_file(&wrapper_path, &stored).expect("persist wrapper");
    let pages_dir = dir.join("pages");
    std::fs::create_dir_all(&pages_dir).unwrap();
    for (i, page) in source.pages.iter().enumerate() {
        std::fs::write(pages_dir.join(format!("page-{i:03}.html")), page).unwrap();
    }

    let run = |args: &[&str]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_objectrunner-serve"))
            .args(args)
            .arg(&wrapper_path)
            .arg("--pages")
            .arg(&pages_dir)
            .output()
            .expect("run objectrunner-serve");
        assert!(
            output.status.success(),
            "{} failed: {}",
            args[0],
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };

    let per_object: Vec<String> = run(&["extract-file", "--wrapper"])
        .lines()
        .map(str::to_owned)
        .collect();
    let streamed = run(&["extract-stream", "--threads", "4", "--wrapper"]);

    // One line per page, in page order, objects flattening to the
    // per-object output byte-for-byte.
    let mut flattened = Vec::new();
    for (i, line) in streamed.lines().enumerate() {
        let parsed = objectrunner_store::Json::parse(line).expect("stream line is JSON");
        assert_eq!(parsed.get("page").and_then(|p| p.as_usize()), Some(i));
        let objects = match parsed.get("objects") {
            Some(objectrunner_store::Json::Arr(objects)) => objects,
            other => panic!("objects array missing: {other:?}"),
        };
        flattened.extend(objects.iter().map(|o| o.render()));
    }
    assert_eq!(per_object, flattened, "streamed objects diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A request line that is not UTF-8 gets an error response on the
/// stdin protocol, like on TCP, and the lines after it are still
/// answered: one response per non-blank line.
#[test]
fn stdin_answers_a_non_utf8_line_and_keeps_going() {
    use std::io::Write;
    let dir = scratch_dir("stdin-bytes");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_objectrunner-serve"))
        .arg("--store")
        .arg(dir.join("wrappers"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("run objectrunner-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin
        .write_all(b"{\"cmd\":\"status\"}\n\xff\xfe garbage\n{\"cmd\":\"status\"}\n")
        .expect("write requests");
    drop(stdin);
    let output = child.wait_with_output().expect("daemon exits at EOF");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("responses are UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request line: {stdout}");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
    assert!(lines[2].contains("\"ok\":true"), "{}", lines[2]);

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fixed point holds across generated specs, not just the
    /// golden five: any inducible source's wrapper survives the
    /// round trip byte-identically.
    #[test]
    fn save_fixed_point_over_generated_specs(
        domain_idx in 0usize..5,
        seed in 0u64..10_000,
        style in 0usize..3,
    ) {
        let domain = Domain::ALL[domain_idx];
        let mut spec = SiteSpec::clean(
            &format!("prop-{}-{seed}", domain.name().to_lowercase()),
            domain,
            PageKind::List,
            12,
            seed,
        );
        spec.style = style;
        let source = generate_site(&spec);
        let stored = induce(&source);
        let first = save(&stored);
        let reloaded = load(&first).expect("load");
        prop_assert_eq!(first, save(&reloaded));
    }

    /// A *repaired* wrapper — patched template, transferred gap
    /// histograms, preserved stable ids, repair provenance — survives
    /// the round trip byte-identically too.
    #[test]
    fn save_fixed_point_over_repaired_wrappers(
        domain_idx in 0usize..5,
        seed in 0u64..10_000,
        from_rev in 1u64..50,
    ) {
        let domain = Domain::ALL[domain_idx];
        let mut spec = SiteSpec::clean(
            &format!("prop-repair-{}-{seed}", domain.name().to_lowercase()),
            domain,
            PageKind::List,
            12,
            seed,
        );
        spec.style = 0;
        let source = generate_site(&spec);
        let mut stored = induce(&source);
        stored.revision = from_rev + 1;

        // Patch through the tree diff against separator-tier drift;
        // when a particular seed's drift declines repair, the format
        // property still holds for hand-built provenance.
        let drifted = generate_drifted(&spec, 0.25);
        let prepared = extract_only(
            &stored.wrapper,
            stored.main_block.as_ref(),
            &stored.clean,
            &drifted.pages,
            Some(2),
        );
        match repair_wrapper(
            &stored.wrapper,
            &stored.sod,
            &prepared.docs,
            &RepairConfig::default(),
        ) {
            Ok(outcome) => {
                let s = outcome.report.summary;
                stored.wrapper = outcome.wrapper;
                stored.repair = Some(RepairProvenance {
                    repaired_from: from_rev,
                    matched_exact: s.matched_exact,
                    matched_container: s.matched_container,
                    unmatched_old: s.unmatched_old,
                    unmatched_new: s.unmatched_new,
                });
            }
            Err(_) => {
                stored.repair = Some(RepairProvenance {
                    repaired_from: from_rev,
                    matched_exact: seed as usize % 7,
                    matched_container: seed as usize % 3,
                    unmatched_old: 0,
                    unmatched_new: seed as usize % 5,
                });
            }
        }
        let first = save(&stored);
        let reloaded = load(&first).expect("load repaired wrapper");
        prop_assert_eq!(&reloaded.repair, &stored.repair);
        prop_assert_eq!(first, save(&reloaded));
    }
}
