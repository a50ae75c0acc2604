//! Live-telemetry guarantees of the serving layer.
//!
//! * **Determinism** — under a pinned fake clock, the `watch` stream,
//!   the `metrics-text` exposition and the `trace slow` dump of two
//!   services fed the same traffic are byte-identical once the
//!   scheduling-dependent values (CPU-time accounting, stage wall
//!   timings, memo hit/miss splits) are normalized away.
//! * **Windows** — the `watch` line reports windowed rates and
//!   quantiles that decay to zero once the clock moves past the
//!   sliding window, while the cumulative request counter keeps its
//!   value.
//! * **Tail sampling** — slow (past the `--slow-trace-micros` floor),
//!   errored and shed requests are retained with their span trees and
//!   retrievable via `trace slow|errors|shed`.
//! * **Access log** — one structured JSONL line per request, with
//!   size-capped rotation to `<path>.1`, surfaced in `status.live`.
//! * **Gauge discipline** — the serving gauges (`inflight`,
//!   `queue_depth`, `active_conns`) never go negative under overload
//!   churn, and settle back to zero when the load stops.

use objectrunner_obs::{Clock, ClockSource, FakeClock, Obs, WindowConfig, DEFAULT_SPAN_CAPACITY};
use objectrunner_serve::{serve_tcp, PoolConfig, ServeConfig, Service};
use objectrunner_store::Json;
use objectrunner_webgen::{generate_site, Domain, PageKind, SiteSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "objectrunner-telemetry-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A live-telemetry service under a pinned fake clock: sliding
/// windows on, slow-trace floor at zero (every completed request
/// qualifies until the adaptive threshold has samples), optional
/// access log.
fn pinned_live_service(
    store_dir: PathBuf,
    access_log: Option<PathBuf>,
    access_log_max_bytes: u64,
) -> (Service, Arc<FakeClock>) {
    let (clock, fake) = Clock::fake();
    fake.set_wall_unix_micros(1_700_000_000_000_000);
    let obs = Obs::with_windows(
        clock.clone(),
        DEFAULT_SPAN_CAPACITY,
        WindowConfig::default(),
    );
    let service = Service::with_observability(
        ServeConfig {
            store_dir,
            slow_trace_micros: Some(0),
            access_log,
            access_log_max_bytes,
            ..ServeConfig::default()
        },
        obs,
        clock,
    );
    (service, fake)
}

/// Persist a books wrapper into `store_dir` and return the extract
/// request every run sends.
fn seed_wrapper(store_dir: &Path) -> String {
    let source = generate_site(&SiteSpec::clean(
        "telemetry-books",
        Domain::Books,
        PageKind::List,
        8,
        17_031,
    ));
    let pages = Json::Arr(source.pages.iter().map(Json::str).collect());
    let induce = Json::Obj(vec![
        ("cmd".into(), Json::str("induce")),
        ("source".into(), Json::str("telemetry-books")),
        ("domain".into(), Json::str("Books")),
        ("pages".into(), pages.clone()),
    ])
    .render();
    let (seeder, _) = pinned_live_service(store_dir.to_path_buf(), None, 64 << 20);
    let response = seeder.handle_line(&induce);
    assert!(
        response.contains("\"ok\":true"),
        "seed induction failed: {response}"
    );
    Json::Obj(vec![
        ("cmd".into(), Json::str("extract")),
        ("source".into(), Json::str("telemetry-books")),
        ("pages".into(), pages),
    ])
    .render()
}

/// The deterministic traffic pattern every determinism run replays:
/// five cached extracts and one unknown-cmd error, the fake clock
/// stepping identically between requests.
fn drive(service: &Service, fake: &FakeClock, extract: &str) {
    for _ in 0..5 {
        let response = service.handle_line(extract);
        assert!(response.contains("\"ok\":true"), "extract failed");
        fake.advance_micros(200_000);
    }
    let response = service.handle_line(r#"{"cmd":"nope"}"#);
    assert!(response.contains("\"ok\":false"));
    fake.advance_micros(200_000);
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

/// Zero every scheduling-dependent JSON value: CPU time is real
/// thread time even under a fake clock, and the busy-time attrs ride
/// along with it.
fn normalize_json(raw: &str) -> String {
    let mut line = raw.to_owned();
    for key in [
        "start_us",
        "dur_us",
        "cpu_us",
        "cpu_micros",
        "wall_micros",
        "busy_micros",
        "latency_micros",
    ] {
        line = zero_key(&line, key);
    }
    line
}

/// Zero the sample value of every Prometheus line whose metric name
/// is scheduling-dependent: real-CPU stage timings, the thread-count
/// gauge and the memo hit/miss split.
fn normalize_metrics(text: &str) -> String {
    text.lines()
        .map(|line| {
            let Some((name, _)) = line.rsplit_once(' ') else {
                return line.to_owned();
            };
            if line.starts_with("# ") {
                line.to_owned()
            } else if name.contains("micros")
                || name.contains("exec_threads")
                || name.contains("cache_hits")
                || name.contains("cache_misses")
            {
                format!("{name} 0")
            } else {
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// One full deterministic session: drive the traffic, then capture
/// the three live-telemetry read paths.
fn telemetry_session(store_dir: PathBuf, extract: &str) -> (String, String, String) {
    let (service, fake) = pinned_live_service(store_dir, None, 64 << 20);
    drive(&service, &fake, extract);
    let spec = service
        .special(r#"{"cmd":"watch","count":3,"interval_micros":0}"#)
        .expect("watch parses as a streaming command");
    let mut watch = String::new();
    service.run_special(&spec, &mut |line| {
        watch.push_str(line);
        watch.push('\n');
        true
    });
    let metrics = service.metrics_text();
    let slow = service.handle_line(r#"{"cmd":"trace","kind":"slow","limit":16}"#);
    (watch, normalize_metrics(&metrics), normalize_json(&slow))
}

#[test]
fn watch_metrics_text_and_trace_slow_are_identical_across_thread_counts() {
    let dir = scratch_dir("determinism");
    let extract = seed_wrapper(&dir);
    let (watch_1, metrics_1, slow_1) = telemetry_session(dir.clone(), &extract);
    let (watch_8, metrics_8, slow_8) = telemetry_session(dir.clone(), &extract);

    assert_eq!(watch_1, watch_8, "watch stream diverged across threads");
    for (a, b) in metrics_1.lines().zip(metrics_8.lines()) {
        assert_eq!(a, b, "first divergent metrics-text line");
    }
    assert_eq!(
        metrics_1.lines().count(),
        metrics_8.lines().count(),
        "metrics-text expositions differ in length"
    );
    assert_eq!(slow_1, slow_8, "trace slow dump diverged across threads");

    // The watch line is the canonical schema ci greps for.
    let first = watch_1.lines().next().expect("one watch line per tick");
    assert!(first.starts_with(r#"{"type":"watch","tick":0,"#));
    for key in [
        "uptime_micros",
        "requests",
        "rps_1s",
        "rps_10s",
        "rps_60s",
        "p50_us",
        "p99_us",
        "p999_us",
        "inflight",
        "queue_depth",
        "active_conns",
        "shed_requests",
        "dropped_spans",
        "access_log_dropped",
    ] {
        assert!(
            first.contains(&format!("\"{key}\":")),
            "watch line missing {key}: {first}"
        );
    }
}

#[test]
fn watch_windows_decay_while_cumulative_counters_hold() {
    let dir = scratch_dir("rollover");
    let extract = seed_wrapper(&dir);
    let (service, fake) = pinned_live_service(dir, None, 64 << 20);
    drive(&service, &fake, extract.as_str());

    let watch_once = |service: &Service| {
        let spec = service
            .special(r#"{"cmd":"watch","count":1,"interval_micros":0}"#)
            .expect("watch parses");
        let mut line = String::new();
        service.run_special(&spec, &mut |l| {
            line = l.to_owned();
            true
        });
        Json::parse(&line).expect("watch line is JSON")
    };

    // Inside the window: six completed requests over 1.2 fake
    // seconds; the 60 s rate and quantiles see all of them.
    let live = watch_once(&service);
    assert_eq!(live.get("requests").and_then(Json::as_i64), Some(6));
    assert!(live.get("rps_60s").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(live.get("p50_us").and_then(Json::as_i64).unwrap() > 0);

    // Two minutes of silence: every bucket of the 64 x 1 s ring has
    // expired, so the windowed view decays to zero — but the
    // cumulative request counter keeps its value.
    fake.advance_micros(120_000_000);
    let idle = watch_once(&service);
    assert_eq!(idle.get("requests").and_then(Json::as_i64), Some(6));
    assert_eq!(idle.get("rps_1s").and_then(Json::as_f64), Some(0.0));
    assert_eq!(idle.get("rps_60s").and_then(Json::as_f64), Some(0.0));
    assert_eq!(idle.get("p50_us").and_then(Json::as_i64), Some(0));
    assert_eq!(idle.get("p99_us").and_then(Json::as_i64), Some(0));

    // A request right at the window edge is visible again.
    let response = service.handle_line(&extract);
    assert!(response.contains("\"ok\":true"));
    let back = watch_once(&service);
    assert_eq!(back.get("requests").and_then(Json::as_i64), Some(7));
    assert!(back.get("rps_60s").and_then(Json::as_f64).unwrap() > 0.0);
}

#[test]
fn slow_errored_and_shed_requests_are_retained_with_span_trees() {
    let dir = scratch_dir("retention");
    let extract = seed_wrapper(&dir);
    let (service, fake) = pinned_live_service(dir, None, 64 << 20);

    // One cached extract: with the floor at zero and the adaptive
    // threshold still cold, it is retained as slow.
    let response = service.handle_line(&extract);
    assert!(response.contains("\"ok\":true"));
    // One unknown command: retained as an error.
    let response = service.handle_line(r#"{"cmd":"nope"}"#);
    assert!(response.contains("\"ok\":false"));
    // Two sheds, as the connection layer would account them.
    let arrival = fake.monotonic_micros();
    service.record_shed(2, arrival, 42);

    let slow = Json::parse(&service.handle_line(r#"{"cmd":"trace","kind":"slow"}"#)).unwrap();
    assert_eq!(slow.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(slow.get("kind").and_then(Json::as_str), Some("slow"));
    assert!(slow.get("retained").and_then(Json::as_i64).unwrap() >= 1);
    let traces = slow.get("traces").and_then(Json::as_arr).unwrap();
    assert!(!traces.is_empty(), "slow ring should hold the extract");
    let spans = traces[0].get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty(), "retained trace carries its span tree");
    assert_eq!(
        spans[0].get("name").and_then(Json::as_str),
        Some("serve.extract")
    );

    let errors = Json::parse(&service.handle_line(r#"{"cmd":"trace","kind":"errors"}"#)).unwrap();
    assert!(errors.get("retained").and_then(Json::as_i64).unwrap() >= 1);
    let traces = errors.get("traces").and_then(Json::as_arr).unwrap();
    assert!(!traces.is_empty(), "errors ring should hold the bad cmd");

    let shed = Json::parse(&service.handle_line(r#"{"cmd":"trace","kind":"shed"}"#)).unwrap();
    assert_eq!(shed.get("retained").and_then(Json::as_i64), Some(2));
    let traces = shed.get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(traces.len(), 2);
    assert_eq!(
        traces[0]
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .first()
            .and_then(|s| s.get("name"))
            .and_then(Json::as_str),
        Some("serve.shed")
    );

    let bad = service.handle_line(r#"{"cmd":"trace","kind":"bogus"}"#);
    assert!(bad.contains("unknown trace kind"), "got: {bad}");

    // The retention counters are visible in status.live.
    let status = Json::parse(&service.handle_line(r#"{"cmd":"status"}"#)).unwrap();
    let live = status.get("live").expect("status.live section");
    let counts = live.get("traces").expect("live.traces");
    assert!(counts.get("slow").and_then(Json::as_i64).unwrap() >= 1);
    assert!(counts.get("errors").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(counts.get("shed").and_then(Json::as_i64), Some(2));
    assert_eq!(
        live.get("slow_trace_threshold_micros")
            .and_then(Json::as_i64),
        Some(0),
        "floor 0, adaptive still cold"
    );
    let hists = live.get("histograms").expect("live.histograms");
    assert!(
        hists
            .get("objectrunner.serve.request.latency_micros")
            .is_some(),
        "request latency window surfaced in status.live"
    );
}

#[test]
fn access_log_writes_one_line_per_request_and_rotates_under_cap() {
    let dir = scratch_dir("accesslog");
    let extract = seed_wrapper(&dir);
    let log_path = dir.join("logs/access.jsonl");
    // A cap small enough that a handful of requests rotate at least
    // once, but big enough to hold one line.
    let (service, fake) = pinned_live_service(dir.clone(), Some(log_path.clone()), 512);
    drive(&service, &fake, &extract);

    let status = Json::parse(&service.handle_line(r#"{"cmd":"status"}"#)).unwrap();
    let log = status
        .get("live")
        .and_then(|l| l.get("access_log"))
        .expect("status.live.access_log");
    assert!(log.get("written").and_then(Json::as_i64).unwrap() >= 6);
    assert!(
        log.get("rotations").and_then(Json::as_i64).unwrap() >= 1,
        "512-byte cap must rotate under six requests"
    );
    assert_eq!(log.get("dropped").and_then(Json::as_i64), Some(0));

    let rotated = log_path.with_extension("jsonl.1");
    assert!(log_path.is_file(), "live log file exists");
    assert!(rotated.is_file(), "rotated file exists at <path>.1");

    // Every surviving line is one canonical JSON record.
    let content = std::fs::read_to_string(&log_path).unwrap();
    for line in content.lines() {
        let record = Json::parse(line).expect("access line is JSON");
        assert!(line.starts_with(r#"{"ts_unix_micros":"#), "key order");
        for key in [
            "trace",
            "cmd",
            "outcome",
            "queue_wait_micros",
            "service_micros",
            "batched",
            "batch_size",
            "bytes",
            "revision",
        ] {
            assert!(record.get(key).is_some(), "access line missing {key}");
        }
    }
    // The extract lines carry the wrapper revision and their rendered
    // size; the wall timestamps step with the fake clock.
    let all = format!("{}{content}", std::fs::read_to_string(&rotated).unwrap());
    assert!(all.contains(r#""cmd":"extract""#));
    assert!(all.contains(r#""source":"telemetry-books""#));
    assert!(all.contains(r#""revision":1"#));
    assert!(all.contains(r#""outcome":"error""#), "bad cmd logged");
}

#[test]
fn serving_gauges_stay_non_negative_under_overload_churn() {
    const BURST: usize = 9;
    const INFLIGHT: usize = 2;
    let dir = scratch_dir("gauges");
    let extract = seed_wrapper(&dir);
    let (service, _fake) = pinned_live_service(dir, None, 64 << 20);
    let service = Arc::new(service);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve_tcp(
        listener,
        Arc::clone(&service),
        PoolConfig {
            workers: 2,
            max_conns: 8,
            inflight: INFLIGHT,
            batch_max: 32,
            ..PoolConfig::default()
        },
    );
    let addr = handle.addr();

    // Sample the gauges while overloaded bursts churn admission
    // control; a set/add mismatch shows up as a negative excursion.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut worst = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = service.obs().snapshot();
                for gauge in ["inflight", "queue_depth", "active_conns"] {
                    worst = worst.min(snap.gauge(&format!("objectrunner.serve.serving.{gauge}")));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            worst
        })
    };

    for _ in 0..3 {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut burst = String::new();
                    for _ in 0..BURST {
                        burst.push_str(&extract);
                        burst.push('\n');
                    }
                    stream.write_all(burst.as_bytes()).expect("send burst");
                    let reader = BufReader::new(&stream);
                    let responses: Vec<String> = reader
                        .lines()
                        .take(BURST)
                        .map(|l| l.expect("response line"))
                        .collect();
                    assert_eq!(responses.len(), BURST);
                });
            }
        });
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let worst = sampler.join().expect("sampler");
    assert!(worst >= 0, "a serving gauge went negative: {worst}");

    // All clients are gone: the pool notices the closes on poll
    // turns, and every gauge settles back to zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = service.obs().snapshot();
        let active = snap.gauge("objectrunner.serve.serving.active_conns");
        let inflight = snap.gauge("objectrunner.serve.serving.inflight");
        let queued = snap.gauge("objectrunner.serve.serving.queue_depth");
        if (active, inflight, queued) == (0, 0, 0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gauges did not settle: active={active} inflight={inflight} queued={queued}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        service
            .obs()
            .snapshot()
            .counter("objectrunner.serve.serving.shed_requests")
            > 0,
        "the churn should actually have shed"
    );
    handle.shutdown();
}
