//! Serving-layer observability, through the protocol: trace ids echoed
//! in every response, fake-clock uptime/idle reporting, the status
//! `metrics` section, and the `trace` command's span trees.

use objectrunner_obs::{Clock, Obs, DEFAULT_SPAN_CAPACITY};
use objectrunner_serve::{ServeConfig, Service};
use objectrunner_store::Json;
use objectrunner_webgen::{generate_site, Domain, PageKind, SiteSpec};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("objectrunner-obs-{tag}-{}", std::process::id()));
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

fn pages(name: &str, seed: u64) -> Vec<String> {
    let spec = SiteSpec::clean(name, Domain::Books, PageKind::List, 10, seed);
    generate_site(&spec).pages
}

#[test]
fn every_response_echoes_a_fresh_trace_id() {
    let dir = scratch_dir("trace-echo");
    let mut service = Service::new(config(dir.clone()));
    let pages = pages("trace-books", 18_100);

    let induce = respond(
        &mut service,
        &request("induce", "trace-books", Some("books"), &pages),
    );
    let extract = respond(
        &mut service,
        &request("extract", "trace-books", None, &pages),
    );
    let status = respond(&mut service, "{\"cmd\":\"status\"}");
    // Error responses carry a trace id too.
    let error = Json::parse(&service.handle_line("{\"cmd\":\"frobnicate\"}")).unwrap();

    let ids: Vec<i64> = [&induce, &extract, &status, &error]
        .iter()
        .map(|r| {
            r.get("trace")
                .and_then(Json::as_i64)
                .expect("every response has a trace id")
        })
        .collect();
    for pair in ids.windows(2) {
        assert!(pair[0] < pair[1], "trace ids increase per request: {ids:?}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_reports_uptime_and_idle_from_the_injected_clock() {
    let dir = scratch_dir("fake-clock");
    let (clock, fake) = Clock::fake();
    fake.set_wall_unix_micros(1_700_000_000_000_000);
    let obs = Obs::with_clock_and_capacity(clock.clone(), DEFAULT_SPAN_CAPACITY);
    let mut service = Service::with_observability(config(dir.clone()), obs, clock);
    let pages = pages("clock-books", 18_102);

    fake.advance_micros(2_000_000); // daemon idles 2s before the first request
    respond(
        &mut service,
        &request("induce", "clock-books", Some("books"), &pages),
    );
    let induce_wall = 1_700_000_000_000_000 + 2_000_000;
    fake.advance_micros(5_000_000); // source idles 5s after induction

    let status = respond(&mut service, "{\"cmd\":\"status\"}");
    assert_eq!(
        status.get("uptime_micros").and_then(Json::as_i64),
        Some(7_000_000),
        "uptime spans construction to now"
    );
    let sources = status.get("sources").and_then(Json::as_arr).unwrap();
    assert_eq!(sources.len(), 1);
    assert_eq!(
        sources[0]
            .get("last_activity_unix_micros")
            .and_then(Json::as_i64),
        Some(induce_wall)
    );
    assert_eq!(
        sources[0].get("idle_micros").and_then(Json::as_i64),
        Some(5_000_000)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_metrics_section_reflects_serving_activity() {
    let dir = scratch_dir("metrics");
    let mut service = Service::new(config(dir.clone()));
    let pages = pages("metrics-books", 18_104);

    respond(
        &mut service,
        &request("induce", "metrics-books", Some("books"), &pages),
    );
    respond(
        &mut service,
        &request("extract", "metrics-books", None, &pages),
    );
    let status = respond(&mut service, "{\"cmd\":\"status\"}");
    let metrics = status.get("metrics").expect("status has a metrics section");

    let latency = metrics
        .get("extract_latency_micros")
        .and_then(|m| m.get("books"))
        .expect("per-domain latency histogram");
    assert_eq!(latency.get("count").and_then(Json::as_i64), Some(1));

    let drift = metrics
        .get("drift_score_milli")
        .and_then(|m| m.get("books"))
        .expect("per-domain drift histogram");
    assert_eq!(
        drift.get("count").and_then(Json::as_i64),
        Some(pages.len() as i64),
        "one drift sample per extracted page"
    );

    assert_eq!(
        metrics
            .get("revisions")
            .and_then(|r| r.get("metrics-books"))
            .and_then(Json::as_i64),
        Some(1)
    );
    let memo = metrics.get("annotation_memo").expect("memo stats");
    let hits = memo.get("hits").and_then(Json::as_i64).unwrap();
    let misses = memo.get("misses").and_then(Json::as_i64).unwrap();
    assert!(hits + misses > 0, "induction exercised the annotation memo");
    let rate = memo.get("hit_rate").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&rate));

    let requests = metrics.get("requests").expect("request counters");
    assert_eq!(requests.get("induce").and_then(Json::as_i64), Some(1));
    assert_eq!(requests.get("extract").and_then(Json::as_i64), Some(1));
    assert_eq!(metrics.get("reinductions").and_then(Json::as_i64), Some(0));

    // The cached path never ran induction stages: the wrap-stage
    // metric exists from the induce request only.
    let snapshot = service.obs().snapshot();
    assert_eq!(
        snapshot.counter("objectrunner.core.pipeline.extract_only_runs"),
        1
    );
    assert_eq!(
        snapshot.counter("objectrunner.core.pipeline.induce_runs"),
        1
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_command_returns_stitched_span_trees() {
    let dir = scratch_dir("trace-cmd");
    let mut service = Service::new(config(dir.clone()));
    let pages = pages("spans-books", 18_106);

    respond(
        &mut service,
        &request("induce", "spans-books", Some("books"), &pages),
    );
    let extract = respond(
        &mut service,
        &request("extract", "spans-books", None, &pages),
    );
    let extract_trace = extract.get("trace").and_then(Json::as_i64).unwrap();

    let dump = respond(&mut service, "{\"cmd\":\"trace\",\"limit\":2}");
    assert_eq!(dump.get("enabled").and_then(Json::as_bool), Some(true));
    let spans = dump.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty());

    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("span '{name}' in dump"))
    };
    // The request span carries the echoed trace id…
    let serve_span = find("serve.extract");
    assert_eq!(
        serve_span.get("trace").and_then(Json::as_i64),
        Some(extract_trace)
    );
    // …and the pipeline's own spans are stitched underneath it.
    let pipeline_span = find("pipeline.extract");
    assert_eq!(
        pipeline_span.get("trace").and_then(Json::as_i64),
        Some(extract_trace)
    );
    assert_eq!(
        pipeline_span.get("parent").and_then(Json::as_i64),
        serve_span.get("id").and_then(Json::as_i64)
    );
    // The induce request's pipeline root rides along under limit=2.
    find("serve.induce");
    find("pipeline.induce");
    find("stage.wrap");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_extracts_each_get_their_own_pipeline_span() {
    let dir = scratch_dir("batch-spans");
    let mut service = Service::new(config(dir.clone()));
    let pages = pages("batch-books", 18_108);
    let induce = respond(
        &mut service,
        &request("induce", "batch-books", Some("books"), &pages),
    );
    let extract = request("extract", "batch-books", None, &pages);
    let mut cache = service.reader_cache();
    let responses = service.handle_batch(&[extract.clone(), extract], &mut cache);
    assert_eq!(
        service
            .obs()
            .snapshot()
            .counter("objectrunner.serve.serving.batched_requests"),
        2,
        "the two extracts ran as one batch"
    );

    assert_eq!(responses.len(), 2);
    for raw in &responses {
        let json = Json::parse(raw).expect("responses are valid JSON");
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true), "{raw}");
        let trace = json.get("trace").and_then(Json::as_i64).unwrap() as u64;
        let spans = service.obs().spans_for_trace(trace);
        let serve_span = spans
            .iter()
            .find(|s| s.name == "serve.extract")
            .expect("request span");
        let pipeline_span = spans
            .iter()
            .find(|s| s.name == "pipeline.extract")
            .unwrap_or_else(|| panic!("trace {trace} has no pipeline.extract span"));
        assert_eq!(
            pipeline_span.parent, serve_span.id,
            "pipeline span hangs under its own request"
        );
    }
    // Every pipeline call of a request runs on the request's thread.
    for response in [&induce, &Json::parse(&responses[0]).unwrap()] {
        let threads = response
            .get("stats")
            .and_then(|s| s.get("threads"))
            .and_then(Json::as_i64);
        assert_eq!(threads, Some(1));
    }

    let _ = std::fs::remove_dir_all(&dir);
}
