//! The serving lifecycle end to end, through the protocol layer:
//! induce → cached extraction (no induction stages) → drift detection
//! → stale → re-induction → post-repair extraction matching a fresh
//! induction on the drifted template.

use objectrunner_core::pipeline::{Pipeline, PipelineConfig};
use objectrunner_core::sample::SampleConfig;
use objectrunner_serve::{instance_json, ServeConfig, Service};
use objectrunner_store::Json;
use objectrunner_webgen::knowledge::recognizers_for;
use objectrunner_webgen::{generate_drifted, generate_site, Domain, PageKind, SiteSpec};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "objectrunner-lifecycle-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn config(store_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        store_dir,
        ..ServeConfig::default()
    }
}

/// Build a protocol request with inline pages.
fn request(cmd: &str, source: &str, domain: Option<&str>, pages: &[String]) -> String {
    let mut fields = vec![
        ("cmd".to_owned(), Json::str(cmd)),
        ("source".to_owned(), Json::str(source)),
    ];
    if let Some(d) = domain {
        fields.push(("domain".to_owned(), Json::str(d)));
    }
    fields.push((
        "pages".to_owned(),
        Json::Arr(pages.iter().map(Json::str).collect()),
    ));
    Json::Obj(fields).render()
}

fn respond(service: &mut Service, line: &str) -> Json {
    let raw = service.handle_line(line);
    let json = Json::parse(&raw).expect("responses are valid JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {raw}"
    );
    json
}

fn stage_names(response: &Json) -> Vec<String> {
    response
        .get("stats")
        .and_then(|s| s.get("stage_timings"))
        .and_then(Json::as_arr)
        .expect("stats.stage_timings")
        .iter()
        .map(|t| t.get("stage").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

fn object_lines(response: &Json) -> Vec<String> {
    response
        .get("objects")
        .and_then(Json::as_arr)
        .expect("objects")
        .iter()
        .map(Json::render)
        .collect()
}

#[test]
fn cached_extraction_skips_induction_and_drift_triggers_reinduction() {
    let dir = scratch_dir("drift");
    let mut service = Service::new(config(dir.clone()));

    let spec = SiteSpec::clean(
        "concerts-live",
        Domain::Concerts,
        PageKind::List,
        15,
        17_000,
    );
    let clean = generate_site(&spec);
    let drifted = generate_drifted(&spec, 0.8);

    // 1. Induce: the full pipeline runs (Wrap stage present).
    let induce = respond(
        &mut service,
        &request("induce", "concerts-live", Some("concerts"), &clean.pages),
    );
    let induced_objects = object_lines(&induce);
    assert!(!induced_objects.is_empty());
    assert!(stage_names(&induce).contains(&"wrap".to_owned()));
    assert_eq!(induce.get("revision").and_then(Json::as_i64), Some(1));

    // 2. Cached extraction, twice: both hit the cache, skip every
    // induction stage, and reproduce the induce-time objects.
    for _ in 0..2 {
        let extract = respond(
            &mut service,
            &request("extract", "concerts-live", None, &clean.pages),
        );
        assert_eq!(extract.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(extract.get("state").and_then(Json::as_str), Some("fresh"));
        assert_eq!(
            extract.get("reinduced").and_then(Json::as_bool),
            Some(false)
        );
        assert!(extract.get("drift").and_then(Json::as_f64).unwrap() < 0.01);
        let stages = stage_names(&extract);
        for absent in ["annotate", "sample", "wrap"] {
            assert!(
                !stages.contains(&absent.to_owned()),
                "{absent} ran on the cached path"
            );
        }
        assert_eq!(object_lines(&extract), induced_objects);
    }

    // 3. The site ships a redesign: drift crosses the threshold, the
    // wrapper goes stale, and — with enough buffered drifted pages —
    // re-induction fires in the same request.
    let repaired = respond(
        &mut service,
        &request("extract", "concerts-live", None, &drifted.pages),
    );
    assert_eq!(
        repaired.get("state").and_then(Json::as_str),
        Some("reinduced")
    );
    assert_eq!(
        repaired.get("reinduced").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(repaired.get("revision").and_then(Json::as_i64), Some(2));
    assert!(
        repaired.get("drift").and_then(Json::as_f64).unwrap() < 0.01,
        "post-repair drift should vanish"
    );

    // 4. The repaired extraction equals a fresh induction run directly
    // on the drifted pages — re-induction lost nothing.
    let pipeline_config = PipelineConfig {
        sample: SampleConfig {
            sample_size: 12,
            ..SampleConfig::default()
        },
        ..PipelineConfig::default()
    };
    let fresh = Pipeline::new(
        Domain::Concerts.sod(),
        recognizers_for(Domain::Concerts, 0.2),
    )
    .with_config(pipeline_config)
    .run_on_html(&drifted.pages)
    .expect("fresh induction on drifted pages");
    let fresh_lines: Vec<String> = fresh
        .objects
        .iter()
        .map(|o| instance_json(o).render())
        .collect();
    assert_eq!(object_lines(&repaired), fresh_lines);

    // 5. Status reflects the whole lifecycle.
    let status = respond(&mut service, "{\"cmd\":\"status\"}");
    let sources = status.get("sources").and_then(Json::as_arr).unwrap();
    assert_eq!(sources.len(), 1);
    let entry = &sources[0];
    assert_eq!(entry.get("state").and_then(Json::as_str), Some("reinduced"));
    assert_eq!(entry.get("revision").and_then(Json::as_i64), Some(2));
    assert_eq!(entry.get("drift_events").and_then(Json::as_i64), Some(1));
    assert_eq!(entry.get("extracts").and_then(Json::as_i64), Some(3));
    assert_eq!(entry.get("cache_hits").and_then(Json::as_i64), Some(3));
    let log = entry.get("log").and_then(Json::as_arr).unwrap();
    let log_text = log
        .iter()
        .filter_map(Json::as_str)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        log_text.contains("stale:"),
        "missing stale transition: {log_text}"
    );
    assert!(
        log_text.contains("reinduced:"),
        "missing reinduce transition: {log_text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrappers_survive_a_daemon_restart() {
    let dir = scratch_dir("restart");
    let spec = SiteSpec::clean("books-shop", Domain::Books, PageKind::List, 12, 17_002);
    let source = generate_site(&spec);

    let baseline = {
        let mut service = Service::new(config(dir.clone()));
        respond(
            &mut service,
            &request("induce", "books-shop", Some("books"), &source.pages),
        );
        let extract = respond(
            &mut service,
            &request("extract", "books-shop", None, &source.pages),
        );
        object_lines(&extract)
    };

    // A brand-new Service over the same store directory: the wrapper
    // warms from disk, no induce needed.
    let mut restarted = Service::new(config(dir.clone()));
    let extract = respond(
        &mut restarted,
        &request("extract", "books-shop", None, &source.pages),
    );
    assert_eq!(extract.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(object_lines(&extract), baseline);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cosmetic_drift_is_invisible_to_the_wrapper() {
    let dir = scratch_dir("cosmetic");
    let mut service = Service::new(config(dir.clone()));

    let spec = SiteSpec::clean("cars-lot", Domain::Cars, PageKind::List, 12, 17_004);
    let clean = generate_site(&spec);
    let cosmetic = generate_drifted(&spec, 0.1);

    respond(
        &mut service,
        &request("induce", "cars-lot", Some("cars"), &clean.pages),
    );
    // Attribute reorder + class rename: token paths are unchanged, so
    // drift stays zero and the wrapper stays fresh.
    let extract = respond(
        &mut service,
        &request("extract", "cars-lot", None, &cosmetic.pages),
    );
    assert_eq!(extract.get("state").and_then(Json::as_str), Some("fresh"));
    assert_eq!(extract.get("drift").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        extract.get("reinduced").and_then(Json::as_bool),
        Some(false)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_error_responses() {
    let service = Service::new(config(scratch_dir("errors")));
    for bad in [
        "not json at all",
        "{\"cmd\":\"frobnicate\"}",
        "{\"cmd\":\"extract\",\"source\":\"nobody\",\"pages\":[\"<html></html>\"]}",
        "{\"cmd\":\"induce\",\"source\":\"x\",\"domain\":\"astrology\",\"pages\":[]}",
        "{\"cmd\":\"induce\",\"source\":\"x\",\"domain\":\"cars\"}",
    ] {
        let raw = service.handle_line(bad);
        let json = Json::parse(&raw).expect("error responses are valid JSON");
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        assert!(json.get("error").and_then(Json::as_str).is_some());
    }
}

/// Separator-tier drift (cell tags change, the container chain holds):
/// the stale wrapper must be *repaired* — patched through the tree
/// diff, no induction stages — and the repaired extraction must be
/// byte-identical to a full re-induction on the drifted pages.
#[test]
fn separator_drift_is_repaired_without_reinduction() {
    let dir = scratch_dir("repair");
    let mut service = Service::new(config(dir.clone()));

    let mut spec = SiteSpec::clean("concerts-sep", Domain::Concerts, PageKind::List, 15, 17_100);
    spec.style = 0;
    let clean = generate_site(&spec);
    let drifted = generate_drifted(&spec, 0.25);

    respond(
        &mut service,
        &request("induce", "concerts-sep", Some("concerts"), &clean.pages),
    );
    let extract = respond(
        &mut service,
        &request("extract", "concerts-sep", None, &drifted.pages),
    );
    assert_eq!(
        extract.get("state").and_then(Json::as_str),
        Some("repaired")
    );
    assert_eq!(extract.get("repaired").and_then(Json::as_bool), Some(true));
    assert_eq!(
        extract.get("reinduced").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(extract.get("revision").and_then(Json::as_i64), Some(2));

    // The whole request — repair included — ran no induction stage.
    let stages = stage_names(&extract);
    for absent in ["annotate", "sample", "wrap"] {
        assert!(
            !stages.contains(&absent.to_owned()),
            "{absent} ran on the repair path"
        );
    }

    // Byte-identical to a fresh induction on the drifted pages.
    let pipeline_config = PipelineConfig {
        sample: SampleConfig {
            sample_size: 12,
            ..SampleConfig::default()
        },
        ..PipelineConfig::default()
    };
    let fresh = Pipeline::new(
        Domain::Concerts.sod(),
        recognizers_for(Domain::Concerts, 0.2),
    )
    .with_config(pipeline_config)
    .run_on_html(&drifted.pages)
    .expect("fresh induction on drifted pages");
    let fresh_lines: Vec<String> = fresh
        .objects
        .iter()
        .map(|o| instance_json(o).render())
        .collect();
    assert_eq!(object_lines(&extract), fresh_lines);

    // Status carries the provenance and the transition log.
    let status = respond(&mut service, "{\"cmd\":\"status\"}");
    let entry = &status.get("sources").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(entry.get("state").and_then(Json::as_str), Some("repaired"));
    let provenance = entry.get("repair").expect("repair provenance");
    assert_eq!(
        provenance.get("repaired_from").and_then(Json::as_i64),
        Some(1)
    );
    let log_text = entry
        .get("log")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        log_text.contains("repaired:"),
        "missing repair transition: {log_text}"
    );
    assert!(
        !log_text.contains("reinduced:"),
        "re-induction ran on a repairable tier: {log_text}"
    );
    // The config echo names the knobs an operator can tune.
    let cfg = status.get("config").expect("config echo");
    assert_eq!(cfg.get("drift_threshold").and_then(Json::as_f64), Some(0.5));
    assert_eq!(
        cfg.get("min_reinduce_pages").and_then(Json::as_i64),
        Some(6)
    );
    assert_eq!(cfg.get("repair_floor").and_then(Json::as_f64), Some(0.5));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The drift detector's blind spot (E10): at strength 0.50 the Books
/// and Cars record markup changes *inside* the records, so the
/// separator slots still align — drift stays under the threshold —
/// while extraction silently returns nothing. The emptiness signal
/// must flag the wrapper stale anyway and recover in the same request.
#[test]
fn silent_misses_trigger_staleness_despite_low_drift() {
    for (domain, name, seed) in [
        (Domain::Books, "books-blind", 17_101u64),
        (Domain::Cars, "cars-blind", 17_102u64),
    ] {
        let dir = scratch_dir(name);
        let mut service = Service::new(config(dir.clone()));
        let mut spec = SiteSpec::clean(name, domain, PageKind::List, 15, seed);
        spec.style = 0;
        let clean = generate_site(&spec);
        let drifted = generate_drifted(&spec, 0.50);

        respond(
            &mut service,
            &request(
                "induce",
                name,
                Some(&domain.name().to_lowercase()),
                &clean.pages,
            ),
        );
        let extract = respond(
            &mut service,
            &request("extract", name, None, &drifted.pages),
        );

        // Drift alone would not have fired (the E10 blind-spot rows).
        assert!(
            extract.get("drift").and_then(Json::as_f64).unwrap() < 0.5
                || extract.get("repaired").and_then(Json::as_bool) == Some(true)
                || extract.get("reinduced").and_then(Json::as_bool) == Some(true),
        );
        // Non-silent handling: the wrapper must not sit "fresh" while
        // extracting nothing.
        let state = extract.get("state").and_then(Json::as_str).unwrap();
        assert!(
            state == "repaired" || state == "reinduced",
            "{name}: blind-spot drift left state '{state}'"
        );
        assert!(
            extract.get("count").and_then(Json::as_i64).unwrap() > 0,
            "{name}: no objects recovered from the blind-spot tier"
        );

        let status = respond(&mut service, "{\"cmd\":\"status\"}");
        let entry = &status.get("sources").and_then(Json::as_arr).unwrap()[0];
        let log_text = entry
            .get("log")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            log_text.contains("stale (silent miss)"),
            "{name}: emptiness trigger did not fire: {log_text}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
