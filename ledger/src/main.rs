//! `ledger` — the repository's benchmark: end-to-end metrics of the
//! shipped `objectrunner-serve` daemon and `extract-stream` CLI on four
//! seeded workloads, and a traced per-layer ledger of the same inputs.
//!
//! ```text
//! ledger --workload <serve-cached|harvest|onboard-drift|stream-crawl>
//!        --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--repeat <n>]
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` it runs the traced ledger instead and prints the
//! per-layer metrics. The last line of stdout is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero when any request fails, a response disagrees with the
//! serial in-process reference, or the run is invalid (see
//! [`Report::invalid`]). See `README.md` next to this crate for
//! the workloads, the metrics and how to read them.

mod check;
mod daemon;
mod fleet;
mod harvest;
mod inputs;
mod layers;
mod net;
mod onboard;
mod replay;
mod report;
mod serve_cached;
mod serving;
mod stats;
mod stream;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// At most this many client connections, all driven by one generator
/// thread: the load generator must not be what saturates a two-core
/// host.
pub const MAX_CONNS: usize = 2;
const GENERATOR_THREADS: usize = 1;

/// The latency quantile `tail_ms` reports on every workload.
pub const TAIL: f64 = 0.9;

/// A fixed-rate phase whose generator sent its requests later than this
/// at p99 measured the generator, not the daemon: it is run again, and
/// when every attempt is that late the run is invalid.
pub const MAX_LATE_P99_MS: f64 = 5.0;

/// Measured seconds of a run when `--seconds` is not given: the length
/// the bounds in `BENCHMARK.json` (its `run_seconds`) were derived at.
const SECONDS: f64 = 20.0;
/// Measured seconds of a `--smoke` run.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ServeCached,
    Harvest,
    OnboardDrift,
    StreamCrawl,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeCached,
        Workload::Harvest,
        Workload::OnboardDrift,
        Workload::StreamCrawl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCached => "serve-cached",
            Workload::Harvest => "harvest",
            Workload::OnboardDrift => "onboard-drift",
            Workload::StreamCrawl => "stream-crawl",
        }
    }

    fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs.
pub struct Ctx {
    pub seed: u64,
    /// Measured time of the run (set-up excluded).
    pub seconds: f64,
    /// Tiny inputs and phases: the smoke test's scale.
    pub smoke: bool,
    /// Client connections: [`MAX_CONNS`], fewer on a one-core host.
    pub conns: usize,
    pub serve_bin: PathBuf,
    /// Scratch directory of this run, removed at exit.
    pub dir: PathBuf,
    /// Where the traced run writes its span files.
    pub trace_dir: PathBuf,
    pub report: Report,
}

impl Ctx {
    /// `share` of the measured time.
    pub fn span(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// A file in the run's scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// Fixed-rate phases run at most this many times while the generator
/// keeps running late.
pub const LATE_ATTEMPTS: usize = 3;

/// The generator's lateness p99 over one attempt at a fixed-rate phase,
/// printed with its sample count. Returns the p99 and whether it is
/// within [`MAX_LATE_P99_MS`]. When it is not and this was the last of
/// [`LATE_ATTEMPTS`], the run is marked invalid.
pub fn on_time(report: &mut Report, phase: &str, attempt: usize, late_ms: &[f64]) -> (f64, bool) {
    let p99 = stats::quantile(&stats::sorted(late_ms.to_vec()), 0.99);
    let ok = p99 <= MAX_LATE_P99_MS;
    eprintln!(
        "ledger: {phase}, attempt {attempt}: generator lateness p99 {p99:.3} ms over {} sends{}",
        late_ms.len(),
        if ok { "" } else { " (late: the host was busy)" }
    );
    if !ok && attempt == LATE_ATTEMPTS {
        report.invalid.push(format!(
            "{phase}: generator lateness p99 {p99:.3} ms > {MAX_LATE_P99_MS} ms \
             in all {LATE_ATTEMPTS} attempts"
        ));
    }
    (p99, ok)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(workload).ok_or_else(|| {
        format!(
            "unknown workload '{workload}' (one of: {})",
            Workload::ALL.map(Workload::name).join(", ")
        )
    })?;
    let seed = value("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds: f64 = match value("--seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None if smoke => SMOKE_SECONDS,
        None => SECONDS,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let repeat = match value("--repeat") {
        Some(n) => n.parse().map_err(|e| format!("--repeat: {e}"))?,
        None => 1,
    };
    let root = match value("--root") {
        Some(r) => PathBuf::from(r),
        None => std::env::current_dir().map_err(|e| format!("cwd: {e}"))?,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        repeat,
        root,
    })
}

/// The daemon binary: built next to this one by `run.sh` (or by the
/// smoke test).
fn serve_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let bin = exe.with_file_name("objectrunner-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p objectrunner-serve` \
             into the same target directory (ledger/run.sh does)",
            bin.display()
        ))
    }
}

/// One run of one workload at one seed.
fn run_once(args: &Args, seed: u64) -> Result<Report, String> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The generator is this one thread, over `conns` connections.
    let conns = MAX_CONNS.min(parallelism);
    assert!(
        GENERATOR_THREADS <= parallelism && conns <= parallelism,
        "load generator exceeds the host's {parallelism} hardware threads"
    );
    let runs = args.root.join(".bench_run");
    let dir = runs.join(format!(
        "{}-{seed}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut ctx = Ctx {
        seed,
        seconds: args.seconds,
        smoke: args.smoke,
        conns,
        serve_bin: serve_bin()?,
        dir: dir.clone(),
        trace_dir: runs.join("trace"),
        report: Report::default(),
    };
    eprintln!(
        "ledger: {} seed {seed}, {} s measured, {}, {parallelism} hardware threads",
        args.workload.name(),
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let outcome = match (args.workload, args.trace) {
        (Workload::ServeCached, false) => serve_cached::run(&mut ctx),
        (Workload::Harvest, false) => harvest::run(&mut ctx),
        (Workload::OnboardDrift, false) => onboard::run(&mut ctx),
        (Workload::StreamCrawl, false) => stream::run(&mut ctx),
        (w, true) => layers::run(&mut ctx, w),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome.map(|()| ctx.report)
}

/// `--repeat N`: run seeds `seed..seed+N` and print each metric's
/// median, quartiles and relative spread, and the regression bound the
/// spread supports: three times the spread, at least 3%, at most 25%.
fn repeat(args: &Args) -> Result<Report, String> {
    let mut runs: Vec<Report> = Vec::new();
    for k in 0..args.repeat {
        let report = run_once(args, args.seed + k as u64)?;
        report.print();
        runs.push(report);
    }
    let mut summary = Report::default();
    println!("repeat summary over {} seeds:", runs.len());
    for m in &runs[0].metrics {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.value(&m.name)).collect();
        let med = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values);
        let spread = (q3 - q1) / med.abs();
        println!(
            "  {:<40} median {:>12.4} {:<6} IQR [{q1:.4}, {q3:.4}] rel {:.4} bound {:.3}",
            m.name,
            med,
            m.unit,
            spread,
            (3.0 * spread).clamp(0.03, 0.25)
        );
        summary.metric(&m.name, med, m.unit, values.len(), "median over seeds");
    }
    for r in &runs {
        summary.attempted += r.attempted;
        summary.errors += r.errors;
        summary.shed += r.shed;
        summary.mismatched += r.mismatched;
        summary.unanswered += r.unanswered;
        summary.invalid.extend(r.invalid.iter().cloned());
    }
    Ok(summary)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.repeat > 1 {
        repeat(&args)
    } else {
        run_once(&args, args.seed)
    };
    match result {
        Ok(report) => {
            report.print();
            if !report.correct() || report.failed() > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(1);
        }
    }
}
