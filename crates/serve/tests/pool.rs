//! Concurrency guarantees of the pooled serving core.
//!
//! * **Fidelity** — N parallel TCP clients firing pipelined bursts
//!   (which the pool runs through the batched extraction path) must
//!   get responses byte-identical to a serial, in-process
//!   `handle_line` run under the same pinned wall clock. Only the
//!   per-request `trace` id and wall-clock `stats` timings may
//!   differ. On the same traffic, the 60 s sliding window over request
//!   latency must read the p50, p99 and p999 of the cumulative
//!   histogram to within one bucket: it is another read over the same
//!   records.
//! * **Admission control** — request lines past the in-flight budget
//!   are shed with the typed `overloaded` response, in request order,
//!   without killing the connection; the budget recovers afterwards
//!   and the sheds are visible in `status.serving`.
//! * **Connection bound** — connections past `--max-conns` get one
//!   `overloaded` line and EOF; closing an admitted connection frees
//!   the slot.

use objectrunner_obs::{
    Clock, ClockSource, Obs, SystemClock, WindowConfig, DEFAULT_SPAN_CAPACITY,
    LATENCY_BUCKETS_MICROS,
};
use objectrunner_serve::{serve_tcp, PoolConfig, ServeConfig, Service, REQUEST_LATENCY};
use objectrunner_store::Json;
use objectrunner_webgen::{generate_site, Domain, PageKind, SiteSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("objectrunner-pool-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const PINNED_WALL_MICROS: u64 = 1_700_000_000_000_000;

/// A service under a pinned fake clock, so two instances cannot
/// diverge on anything time-derived.
fn pinned_service(store_dir: PathBuf) -> Service {
    let (clock, fake) = Clock::fake();
    fake.set_wall_unix_micros(PINNED_WALL_MICROS);
    let obs = Obs::with_clock_and_capacity(clock.clone(), DEFAULT_SPAN_CAPACITY);
    service_with(store_dir, obs, clock)
}

fn service_with(store_dir: PathBuf, obs: Obs, clock: Clock) -> Service {
    Service::with_observability(
        ServeConfig {
            store_dir,
            ..ServeConfig::default()
        },
        obs,
        clock,
    )
}

/// Real monotonic time, so request latencies spread over the buckets,
/// with the wall clock pinned as in [`pinned_service`].
#[derive(Debug)]
struct PinnedWall(SystemClock);

impl ClockSource for PinnedWall {
    fn monotonic_micros(&self) -> u64 {
        self.0.monotonic_micros()
    }

    fn wall_unix_micros(&self) -> u64 {
        PINNED_WALL_MICROS
    }
}

/// The daemon's live-telemetry service: sliding windows behind every
/// histogram, timed by the real monotonic clock.
fn windowed_service(store_dir: PathBuf) -> Service {
    let clock = Clock::from_source(Arc::new(PinnedWall(SystemClock::new())));
    let obs = Obs::with_windows(
        clock.clone(),
        DEFAULT_SPAN_CAPACITY,
        WindowConfig::default(),
    );
    service_with(store_dir, obs, clock)
}

/// Strip the fields that legitimately differ between runs: the
/// per-request `trace` id and the wall-clock `stats` timings.
fn normalize(raw: &str) -> String {
    match Json::parse(raw).expect("valid response") {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "trace" && k != "stats")
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// Persist a books wrapper into `store_dir` and return the extract
/// request both the serial reference and the TCP clients will send.
fn seed_wrapper(store_dir: &Path) -> String {
    let source = generate_site(&SiteSpec::clean(
        "pool-books",
        Domain::Books,
        PageKind::List,
        8,
        17_031,
    ));
    let pages = Json::Arr(source.pages.iter().map(Json::str).collect());
    let induce = Json::Obj(vec![
        ("cmd".into(), Json::str("induce")),
        ("source".into(), Json::str("pool-books")),
        ("domain".into(), Json::str("Books")),
        ("pages".into(), pages.clone()),
    ])
    .render();
    let seeder = pinned_service(store_dir.to_path_buf());
    let response = seeder.handle_line(&induce);
    assert!(
        response.contains("\"ok\":true"),
        "seed induction failed: {response}"
    );
    Json::Obj(vec![
        ("cmd".into(), Json::str("extract")),
        ("source".into(), Json::str("pool-books")),
        ("pages".into(), pages),
    ])
    .render()
}

#[test]
fn parallel_clients_get_byte_identical_responses_to_a_serial_run() {
    const CLIENTS: usize = 6;
    const REQUESTS_PER_CLIENT: usize = 4;
    let dir = scratch_dir("fidelity");
    let extract = seed_wrapper(&dir);

    // The serial reference: a fresh service warming the same wrapper
    // from disk, handling the request once through `handle_line`.
    let serial = pinned_service(dir.clone());
    let expected = normalize(&serial.handle_line(&extract));
    assert!(expected.contains("\"ok\":true"), "reference run failed");
    assert!(expected.contains("\"cache\":\"hit\""));

    let pooled = Arc::new(windowed_service(dir.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve_tcp(
        listener,
        Arc::clone(&pooled),
        PoolConfig {
            workers: 3,
            ..PoolConfig::default()
        },
    );
    let addr = handle.addr();

    // Each client pipelines its whole burst up front, so consecutive
    // same-source extracts flow through the batched pipeline path.
    let client_responses: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let extract = &extract;
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut burst = String::new();
                    for _ in 0..REQUESTS_PER_CLIENT {
                        burst.push_str(extract);
                        burst.push('\n');
                    }
                    stream.write_all(burst.as_bytes()).expect("send burst");
                    let reader = BufReader::new(&stream);
                    reader
                        .lines()
                        .take(REQUESTS_PER_CLIENT)
                        .map(|l| l.expect("response line"))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for (client, responses) in client_responses.iter().enumerate() {
        assert_eq!(responses.len(), REQUESTS_PER_CLIENT);
        for (i, raw) in responses.iter().enumerate() {
            assert_eq!(
                normalize(raw),
                expected,
                "client {client} response {i} diverged from the serial run"
            );
        }
    }

    // The pool actually batched: fewer pipeline invocations than
    // requests would need serially.
    let snap = pooled.obs().snapshot();
    assert!(
        snap.counter("objectrunner.serve.serving.batched_requests") > 0,
        "pipelined bursts should have been batched"
    );
    assert_eq!(
        snap.counter("objectrunner.serve.serving.shed_requests"),
        0,
        "no shedding expected at this load"
    );
    assert_eq!(snap.counter("objectrunner.serve.serving.shed_conns"), 0);

    // The run is far shorter than a minute, so the 60 s window holds
    // every latency sample the cumulative histogram does.
    let now = pooled.obs().clock().expect("enabled").monotonic_micros();
    let windowed = pooled
        .obs()
        .windows()
        .and_then(|w| w.get(REQUEST_LATENCY))
        .expect("request latency window")
        .snapshot(now, 60_000_000);
    let cumulative = snap.histogram(REQUEST_LATENCY);
    assert_eq!(windowed.count, cumulative.count);
    let bucket = |v: u64| LATENCY_BUCKETS_MICROS.partition_point(|&b| b < v);
    for q in [0.5, 0.99, 0.999] {
        let (w, c) = (windowed.quantile(q), cumulative.quantile(q));
        assert!(
            bucket(w).abs_diff(bucket(c)) <= 1,
            "windowed p{q} {w} µs is more than one bucket from the histogram's {c} µs"
        );
    }
    handle.shutdown();
}

#[test]
fn overload_sheds_typed_responses_and_recovers() {
    const BURST: usize = 7;
    const INFLIGHT: usize = 2;
    let dir = scratch_dir("overload");
    let extract = seed_wrapper(&dir);

    let service = Arc::new(pinned_service(dir.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve_tcp(
        listener,
        Arc::clone(&service),
        PoolConfig {
            workers: 1,
            max_conns: 4,
            inflight: INFLIGHT,
            batch_max: 32,
            ..PoolConfig::default()
        },
    );

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // One write syscall on loopback delivers the burst as one unit,
    // so the worker's turn sees all lines at once: the admitted
    // prefix is exactly the in-flight budget, the rest is shed.
    let mut burst = String::new();
    for _ in 0..BURST {
        burst.push_str(&extract);
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).expect("send burst");

    let mut reader = BufReader::new(&stream);
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        line.trim_end().to_owned()
    };
    let responses: Vec<String> = (0..BURST).map(|_| read_line()).collect();

    // Admitted prefix first, in order …
    for (i, raw) in responses[..INFLIGHT].iter().enumerate() {
        let json = Json::parse(raw).expect("valid response");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {i} should be admitted: {raw}"
        );
        assert_eq!(json.get("cmd").and_then(Json::as_str), Some("extract"));
    }
    // … then the typed sheds, connection intact.
    for raw in &responses[INFLIGHT..] {
        assert_eq!(raw, r#"{"ok":false,"error":"overloaded","shed":true}"#);
    }

    // The budget was released: a lone follow-up request succeeds.
    writeln!(&stream, "{extract}").expect("send follow-up");
    let follow_up = read_line();
    assert!(
        follow_up.contains("\"ok\":true"),
        "budget should recover after the burst: {follow_up}"
    );

    // The sheds are visible to operators.
    let status_cmd = r#"{"cmd":"status"}"#;
    writeln!(&stream, "{status_cmd}").expect("send status");
    let status = Json::parse(&read_line()).expect("status response");
    let serving = status.get("serving").expect("serving section");
    assert_eq!(
        serving.get("shed_requests").and_then(Json::as_i64),
        Some((BURST - INFLIGHT) as i64)
    );
    assert_eq!(serving.get("shed_conns").and_then(Json::as_i64), Some(0));
    assert_eq!(
        serving
            .get("pool")
            .and_then(|p| p.get("inflight_budget"))
            .and_then(Json::as_i64),
        Some(INFLIGHT as i64)
    );
    handle.shutdown();
}

#[test]
fn connections_past_the_bound_are_shed_and_slots_recover() {
    let dir = scratch_dir("maxconns");
    let service = Arc::new(pinned_service(dir));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve_tcp(
        listener,
        Arc::clone(&service),
        PoolConfig {
            workers: 1,
            max_conns: 1,
            ..PoolConfig::default()
        },
    );
    let addr = handle.addr();

    let status_line = r#"{"cmd":"status"}"#;
    // Occupy the only slot, and prove it is *admitted* (served) —
    // connect alone only proves the kernel queued the socket.
    let mut first = TcpStream::connect(addr).expect("connect");
    writeln!(first, "{status_line}").expect("send");
    let mut reader = BufReader::new(&first);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"ok\":true"));

    // The second connection gets one typed line, then EOF.
    let mut second = TcpStream::connect(addr).expect("connect");
    let mut rejected = String::new();
    second.read_to_string(&mut rejected).expect("read to EOF");
    assert_eq!(
        rejected.trim_end(),
        r#"{"ok":false,"error":"overloaded","shed":true}"#
    );

    // Freeing the slot lets a later connection in (the pool notices
    // the close on a poll turn, so retry briefly).
    drop(reader);
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let served = loop {
        // A retry that lands while the slot is still held is shed and
        // closed server-side, so the write itself may fail — both
        // outcomes mean "try again".
        let mut third = TcpStream::connect(addr).expect("connect");
        let mut response = String::new();
        if writeln!(third, "{status_line}").is_ok() {
            let _ = BufReader::new(&third).read_line(&mut response);
        }
        if response.contains("\"ok\":true") {
            break true;
        }
        if std::time::Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(served, "slot should recover after the first client closes");

    let snap = service.obs().snapshot();
    assert!(snap.counter("objectrunner.serve.serving.shed_conns") >= 1);
    handle.shutdown();
}
