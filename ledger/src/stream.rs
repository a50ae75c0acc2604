//! `stream-crawl`: the `extract-stream` CLI over a single-source Books
//! corpus with navigation noise, written to disk before timing.
//!
//! Each crawl job runs the CLI as shipped (default thread count) over
//! the whole corpus directory, one job after another until the time is
//! up. Parse, clean, main-block replay and extraction do nearly all the
//! work, with no TCP, no JSON request decoding and no induction, so a
//! change to the extraction pipeline shows here and a change to the
//! connection layer does not.
//!
//! Checks per job: exit status 0, one output line per page, and every
//! 97th line equal to the in-process `extract_only` result for that
//! page.

use crate::daemon::{vmhwm_mb, Piped};
use crate::inputs::{mixed_spec, Rng};
use crate::stats;
use crate::Ctx;
use objectrunner_core::pipeline::extract_only;
use objectrunner_serve::instance_json;
use objectrunner_store::{load_file, Json, StoredWrapper};
use objectrunner_webgen::{page_file_name, site_pages, Domain, Drift, SiteSpec};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pages per crawl job: enough that the CLI's start-up is a small part
/// of a job, few enough for many jobs per run.
pub const PAGES: usize = 1500;
/// Every `SAMPLE`-th output line is checked against the reference.
const SAMPLE: usize = 97;
/// VmHWM is polled every this many reads of the CLI's output.
const RSS_EVERY: usize = 8;

/// The corpus on disk, its wrapper, and the reference lines.
pub struct Corpus {
    pub dir: PathBuf,
    pub pages: usize,
    pub wrapper: PathBuf,
    /// Page index → the expected output line, for every sampled page.
    expected: BTreeMap<usize, String>,
}

/// The Books site the corpus holds.
pub fn spec(seed: u64, pages: usize) -> SiteSpec {
    let mut rng = Rng::fork(seed, "stream");
    // The mix's first source with navigation noise.
    mixed_spec("crawl-books", Domain::Books, pages, 6, &mut rng)
}

/// The line `extract-stream` prints for one page.
fn output_line(stored: &StoredWrapper, index: usize, html: &str) -> String {
    let outcome = extract_only(
        &stored.wrapper,
        stored.main_block.as_ref(),
        &stored.clean,
        &[html],
        None,
    );
    Json::Obj(vec![
        ("page".into(), Json::int(index)),
        (
            "objects".into(),
            Json::Arr(outcome.per_page[0].iter().map(instance_json).collect()),
        ),
    ])
    .render()
}

impl Corpus {
    /// Count output lines, and the sampled ones that differ from the
    /// reference: (lines, mismatched).
    pub fn check<'a>(&self, lines: impl IntoIterator<Item = &'a str>) -> (usize, usize) {
        let mut count = 0;
        let mut mismatched = 0;
        for (i, line) in lines.into_iter().enumerate() {
            if let Some(want) = self.expected.get(&i) {
                mismatched += (line != want) as usize;
            }
            count += 1;
        }
        (count, mismatched)
    }
}

/// Write the corpus, induce the wrapper from its first 20 pages (with
/// the daemon's own code and configuration) and compute the sampled
/// reference lines.
pub fn corpus(ctx: &Ctx, pages: usize) -> Result<Corpus, String> {
    let spec = spec(ctx.seed, pages);
    let dir = ctx.path("corpus");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut sample: Vec<String> = Vec::new();
    let mut keep: Vec<(usize, String)> = Vec::new();
    for (i, (html, _)) in site_pages(&spec, &Drift::NONE).enumerate() {
        let path = dir.join(page_file_name(i));
        std::fs::write(&path, &html).map_err(|e| format!("{}: {e}", path.display()))?;
        if sample.len() < crate::fleet::INDUCE_PAGES {
            sample.push(html.clone());
        }
        if i % SAMPLE == 0 {
            keep.push((i, html));
        }
    }
    let store = ctx.path("store");
    let service = crate::fleet::service(&store, None);
    let induced = service.handle_line(&crate::inputs::induce_line(
        &spec.name,
        spec.domain,
        &sample,
    ));
    if !crate::check::ok(&induced) {
        return Err(format!("stream corpus does not induce: {induced}"));
    }
    let wrapper = store.join(format!("{}.orw", spec.name));
    let stored = load_file(&wrapper).map_err(|e| format!("{}: {e}", wrapper.display()))?;
    let expected = keep
        .into_iter()
        .map(|(i, html)| (i, output_line(&stored, i, &html)))
        .collect();
    Ok(Corpus {
        dir,
        pages,
        wrapper,
        expected,
    })
}

/// One crawl job's measurements.
pub struct Job {
    pub first_line: Duration,
    pub wall: Duration,
    pub lines: usize,
    pub mismatched: usize,
    pub ok: bool,
    pub rss_mb: f64,
}

/// Run `extract-stream` over the corpus, at its default thread count,
/// and check its output.
pub fn job(bin: &Path, corpus: &Corpus, log: &PathBuf) -> Result<Job, String> {
    let args = [
        "extract-stream".to_owned(),
        "--wrapper".to_owned(),
        corpus.wrapper.display().to_string(),
        "--pages".to_owned(),
        corpus.dir.display().to_string(),
    ];
    let mut child = Piped::spawn(bin, &args, log)?;
    let spawned = child.spawned;
    let pid = child.child.id();
    let mut stdout = child
        .child
        .stdout
        .take()
        .ok_or("extract-stream: no stdout")?;
    // While the CLI runs, only collect its output in large reads: the
    // ledger shares the host's cores with it. The checks come after.
    let mut out = Vec::new();
    let mut chunk = vec![0; 1 << 16];
    let mut first_line = None;
    let mut rss: f64 = 0.0;
    for reads in 0.. {
        let n = stdout
            .read(&mut chunk)
            .map_err(|e| format!("extract-stream output: {e}"))?;
        if n == 0 {
            break;
        }
        if first_line.is_none() && chunk[..n].contains(&b'\n') {
            first_line = Some(spawned.elapsed());
        }
        out.extend_from_slice(&chunk[..n]);
        if reads % RSS_EVERY == 0 {
            rss = rss.max(vmhwm_mb(pid).unwrap_or(0.0));
        }
    }
    rss = rss.max(vmhwm_mb(pid).unwrap_or(0.0));
    let status = child
        .child
        .wait()
        .map_err(|e| format!("extract-stream: {e}"))?;
    let wall = spawned.elapsed();
    let text = String::from_utf8_lossy(&out);
    let (lines, mismatched) = corpus.check(text.lines());
    Ok(Job {
        first_line: first_line.unwrap_or_default(),
        wall,
        lines,
        mismatched,
        ok: status.success() && lines == corpus.pages,
        rss_mb: rss,
    })
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let pages = if ctx.smoke { 200 } else { PAGES };
    let corpus = corpus(ctx, pages)?;
    let log = ctx.path("stream.log");
    let deadline = Instant::now() + ctx.span(1.0);
    let mut jobs: Vec<Job> = Vec::new();
    while Instant::now() < deadline || jobs.is_empty() {
        let j = job(&ctx.serve_bin, &corpus, &log)?;
        ctx.report.attempted += 1;
        if !j.ok {
            ctx.report.errors += 1;
            eprintln!(
                "ledger: extract-stream job {} failed: {} of {} lines (see {})",
                jobs.len(),
                j.lines,
                pages,
                log.display()
            );
        } else if j.mismatched > 0 {
            ctx.report.mismatched += 1;
        }
        jobs.push(j);
    }
    let col = |f: &dyn Fn(&Job) -> f64| -> Vec<f64> { jobs.iter().map(f).collect() };
    let wall = stats::sorted(col(&|j| stats::ms(j.wall)));
    let n = jobs.len();
    let note = format!("one job = extract-stream over {pages} pages, default threads");
    let r = &mut ctx.report;
    r.metric(
        "setup_s",
        stats::median(&col(&|j| j.first_line.as_secs_f64())),
        "s",
        n,
        "median spawn until the first output line",
    );
    r.metric("p50_ms", stats::quantile(&wall, 0.5), "ms", n, &note);
    r.metric(
        "tail_ms",
        stats::quantile(&wall, crate::TAIL),
        "ms",
        n,
        &format!("p90, {note}"),
    );
    r.metric(
        "pages_per_s",
        stats::median(&col(&|j| pages as f64 / j.wall.as_secs_f64())),
        "1/s",
        n,
        "median over jobs, spawn to exit",
    );
    r.metric(
        "peak_rss_mb",
        stats::median(&col(&|j| j.rss_mb)),
        "MB",
        n,
        "median over jobs of the CLI's VmHWM",
    );
    Ok(())
}
