//! The one extraction path: a per-page function and the streaming
//! entry point that runs it.
//!
//! `process_page` takes one page through the extract-only chain —
//! Parse → Clean → main-block replay → Extract — and times each step.
//! The pool's `exec::drive` runs it over an *iterator* of
//! pages and hands each result to a sink on the caller's thread, **in
//! page order**, holding only a bounded window of pages in memory at
//! once. Every extract-only entry point is a thin shim over the two:
//! [`extract_stream`] (crawl scale: instances to a sink, documents
//! dropped) and [`crate::pipeline::extract_only_with`] (a page slice:
//! instances and prepared documents collected), so the streamed output
//! is identical to `extract_only` on the same pages by construction.
//!
//! Workers hold no per-page state; each page is parsed by
//! `html::parse`. A stream allows `WINDOW_PER_THREAD` pages in flight
//! per worker, so peak memory is `O(threads × window)` pages
//! regardless of corpus size.

use crate::exec::{drive, resolve_threads};
use crate::wrapper::Wrapper;
use objectrunner_html::{clean_document, parse, CleanOptions, Document};
use objectrunner_obs::Obs;
use objectrunner_segment::{simplify_to_main_block, MainBlockChoice};
use objectrunner_sod::Instance;
use std::time::{Duration, Instant};

/// In-flight pages per worker: the reorder buffer plus the pages being
/// processed never exceed `threads × WINDOW_PER_THREAD`.
const WINDOW_PER_THREAD: usize = 4;

/// A `stream.page` span is emitted for one page in every `SPAN_SAMPLE`.
/// Sampling keeps tracing overhead flat — at this rate it is
/// unmeasurable next to parse cost.
const SPAN_SAMPLE: usize = 1024;

/// Configuration for [`extract_stream`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Worker threads; `None` resolves `OBJECTRUNNER_THREADS` then
    /// available parallelism (same rule as the batch pipeline).
    /// `Some(1)` runs everything inline on the caller's thread.
    pub threads: Option<usize>,
    /// Observability handle ([`Obs::disabled`] by default).
    pub obs: Obs,
    /// `(trace, parent span)` to attach this run's spans under.
    pub trace_context: Option<(u64, u64)>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            threads: None,
            obs: Obs::disabled(),
            trace_context: None,
        }
    }
}

/// Run statistics of one [`extract_stream`] call.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Pages consumed from the source iterator.
    pub pages: usize,
    /// Instances delivered to the sink, all pages summed.
    pub objects: usize,
    /// Worker threads the run used.
    pub threads: usize,
    /// End-to-end wall clock.
    pub wall_micros: u128,
    /// Summed time spent in the per-page function, all workers — the
    /// CPU cost of extraction, excluding the sink and scheduler waits.
    pub busy_micros: u128,
    /// Always 0: parsing keeps no per-page text arena. The field exists
    /// only so the benchmark harness that reads it keeps building.
    pub arena_peak_bytes: usize,
}

impl StreamStats {
    /// Throughput over the whole run.
    pub fn pages_per_sec(&self) -> f64 {
        if self.wall_micros == 0 {
            return 0.0;
        }
        self.pages as f64 * 1_000_000.0 / self.wall_micros as f64
    }
}

/// What one page yields from `process_page`.
pub(crate) struct PageOutput {
    /// The prepared (cleaned + simplified) document.
    pub doc: Document,
    /// The wrapper's instances on this page.
    pub objects: Vec<Instance>,
    /// Time spent in Parse, Clean, main-block replay and Extract, in
    /// that order (replay is zero when there is no main block).
    pub steps: [Duration; 4],
}

/// One page through the extract-only chain: Parse → Clean → main-block
/// replay → Extract. The only place this chain exists; the cleaning
/// options and the block replay are the ones the wrapper was induced
/// with, so on pages of the unchanged template the output equals a
/// fresh pipeline run's.
pub(crate) fn process_page(
    html: &str,
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
) -> PageOutput {
    let t0 = Instant::now();
    let mut doc = parse(html);
    let t1 = Instant::now();
    clean_document(&mut doc, clean);
    let t2 = Instant::now();
    if let Some(choice) = main_block {
        let _ = simplify_to_main_block(&mut doc, choice);
    }
    let t3 = Instant::now();
    let objects = wrapper.extract_document(&doc);
    let t4 = Instant::now();
    PageOutput {
        doc,
        objects,
        steps: [t1 - t0, t2 - t1, t3 - t2, t4 - t3],
    }
}

/// Apply an induced wrapper to a stream of pages, invoking
/// `sink(page_index, instances)` for every page **in page order** on
/// the caller's thread. See the module docs for the memory model; the
/// output is identical to [`crate::pipeline::extract_only`] over the
/// collected pages at any thread count.
pub fn extract_stream<I, S, F>(
    wrapper: &Wrapper,
    main_block: Option<&MainBlockChoice>,
    clean: &CleanOptions,
    pages: I,
    config: &StreamConfig,
    mut sink: F,
) -> StreamStats
where
    I: IntoIterator<Item = S>,
    I::IntoIter: Send,
    S: AsRef<str> + Send,
    F: FnMut(usize, Vec<Instance>),
{
    let obs = &config.obs;
    let start = Instant::now();
    let mut root = match config.trace_context {
        Some((trace, parent)) => obs.span_in(trace, parent, "pipeline.extract_stream"),
        None => obs.trace("pipeline.extract_stream"),
    };
    let page_span_ctx = root.context();
    let mut objects = 0;
    let threads = resolve_threads(config.threads);
    let run = drive(
        pages,
        threads,
        threads * WINDOW_PER_THREAD,
        |i, page: S| {
            let span = sampled_span(obs, page_span_ctx, i);
            let out = process_page(page.as_ref(), wrapper, main_block, clean).objects;
            finish_page_span(span, &out);
            out
        },
        |i, out| {
            objects += out.len();
            sink(i, out);
        },
    );
    let stats = StreamStats {
        pages: run.pages,
        objects,
        threads: run.workers,
        wall_micros: start.elapsed().as_micros(),
        busy_micros: run.busy.as_micros(),
        arena_peak_bytes: 0,
    };

    if obs.is_enabled() {
        obs.counter_add("objectrunner.core.stream.runs", 1);
        obs.counter_add("objectrunner.core.stream.pages", stats.pages as u64);
        obs.counter_add("objectrunner.core.stream.objects", stats.objects as u64);
        obs.gauge_set(
            "objectrunner.core.stream.pages_per_sec",
            stats.pages_per_sec() as i64,
        );
    }
    root.attr_u64("pages", stats.pages as u64);
    root.attr_u64("objects", stats.objects as u64);
    root.add_cpu_micros(stats.busy_micros as u64);
    root.finish();
    stats
}

/// The 1-in-N sampled per-page span (inert when not sampled).
fn sampled_span(obs: &Obs, ctx: (u64, u64), page: usize) -> Option<objectrunner_obs::Span> {
    if !obs.is_enabled() || !page.is_multiple_of(SPAN_SAMPLE) {
        return None;
    }
    let mut span = obs.span_in(ctx.0, ctx.1, "stream.page");
    span.attr_u64("page", page as u64);
    Some(span)
}

fn finish_page_span(span: Option<objectrunner_obs::Span>, out: &[Instance]) {
    if let Some(mut span) = span {
        span.attr_u64("objects", out.len() as u64);
        span.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{extract_only, Pipeline, PipelineConfig};
    use crate::sample::SampleConfig;
    use objectrunner_knowledge::gazetteer::Gazetteer;
    use objectrunner_knowledge::recognizer::{Recognizer, RecognizerSet};
    use objectrunner_sod::{Multiplicity, Sod, SodBuilder};

    fn concert_sod() -> Sod {
        SodBuilder::tuple("concert")
            .entity("artist", Multiplicity::One)
            .entity("date", Multiplicity::One)
            .build()
    }

    fn recognizers(artists: &[&str]) -> RecognizerSet {
        let mut g = Gazetteer::new();
        for a in artists {
            g.insert(a, 0.9, 5.0);
        }
        let mut set = RecognizerSet::new();
        set.insert("artist", Recognizer::dictionary(g));
        set.insert("date", Recognizer::predefined_date());
        set
    }

    fn source_pages(n_pages: usize) -> Vec<String> {
        (0..n_pages)
            .map(|p| {
                let recs: String = (0..(p % 3 + 1))
                    .map(|i| {
                        format!(
                            "<li><div>Band{p}x{i}</div><div>May {}, 2010</div></li>",
                            i + 1
                        )
                    })
                    .collect();
                format!(
                    "<html><head><title>t</title></head><body>\
                     <div class=\"nav\">home about contact pages</div>\
                     <div class=\"content\"><ul>{recs}</ul></div>\
                     <div class=\"footer\">copyright legal privacy terms</div>\
                     </body></html>"
                )
            })
            .collect()
    }

    fn induce() -> (Wrapper, Option<MainBlockChoice>, CleanOptions, Vec<String>) {
        let pages = source_pages(24);
        let known: Vec<String> = (0..24).step_by(3).map(|p| format!("Band{p}x0")).collect();
        let refs: Vec<&str> = known.iter().map(String::as_str).collect();
        let config = PipelineConfig {
            sample: SampleConfig {
                sample_size: 8,
                ..SampleConfig::default()
            },
            ..PipelineConfig::default()
        };
        let pipeline = Pipeline::new(concert_sod(), recognizers(&refs)).with_config(config.clone());
        let outcome = pipeline.run_on_html(&pages).expect("pipeline succeeds");
        (outcome.wrapper, outcome.main_block, config.clean, pages)
    }

    fn streamed(
        wrapper: &Wrapper,
        main_block: Option<&MainBlockChoice>,
        clean: &CleanOptions,
        pages: &[String],
        threads: usize,
    ) -> (Vec<(usize, Vec<String>)>, StreamStats) {
        let mut got = Vec::new();
        let stats = extract_stream(
            wrapper,
            main_block,
            clean,
            pages.iter().map(String::as_str),
            &StreamConfig {
                threads: Some(threads),
                ..StreamConfig::default()
            },
            |i, instances| {
                got.push((i, instances.iter().map(|o| o.to_string()).collect()));
            },
        );
        (got, stats)
    }

    #[test]
    fn stream_matches_batch_extract_only() {
        let (wrapper, main_block, clean, pages) = induce();
        let batch = extract_only(&wrapper, main_block.as_ref(), &clean, &pages, None);
        let expect: Vec<(usize, Vec<String>)> = batch
            .per_page
            .iter()
            .enumerate()
            .map(|(i, page)| (i, page.iter().map(|o| o.to_string()).collect()))
            .collect();
        for threads in [1, 4] {
            let (got, stats) = streamed(&wrapper, main_block.as_ref(), &clean, &pages, threads);
            assert_eq!(got, expect, "threads={threads} diverged from batch");
            assert_eq!(stats.pages, pages.len());
            assert_eq!(
                stats.objects,
                expect.iter().map(|(_, v)| v.len()).sum::<usize>()
            );
            assert_eq!(stats.threads, threads);
        }
    }

    #[test]
    fn sink_sees_pages_in_order_at_any_thread_count() {
        let (wrapper, main_block, clean, pages) = induce();
        for threads in [1, 2, 8] {
            let (got, _) = streamed(&wrapper, main_block.as_ref(), &clean, &pages, threads);
            let order: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
            assert_eq!(order, (0..pages.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_source_is_a_clean_noop() {
        let (wrapper, main_block, clean, _) = induce();
        let none: Vec<String> = Vec::new();
        let (got, stats) = streamed(&wrapper, main_block.as_ref(), &clean, &none, 4);
        assert!(got.is_empty());
        assert_eq!(stats.pages, 0);
        assert_eq!(stats.objects, 0);
    }

    #[test]
    fn stream_records_metrics_and_sampled_spans() {
        let (wrapper, main_block, clean, pages) = induce();
        let obs = Obs::enabled();
        let before = obs.snapshot();
        let mut emitted = 0usize;
        let stats = extract_stream(
            &wrapper,
            main_block.as_ref(),
            &clean,
            pages.iter().map(String::as_str),
            &StreamConfig {
                threads: Some(2),
                obs: obs.clone(),
                ..StreamConfig::default()
            },
            |_, _| emitted += 1,
        );
        assert_eq!(emitted, pages.len());
        let diff = obs.snapshot().diff(&before);
        assert_eq!(diff.counter("objectrunner.core.stream.runs"), 1);
        assert_eq!(
            diff.counter("objectrunner.core.stream.pages"),
            pages.len() as u64
        );
        assert_eq!(
            diff.counter("objectrunner.core.stream.objects"),
            stats.objects as u64
        );
        assert!(
            obs.snapshot()
                .gauge("objectrunner.core.stream.pages_per_sec")
                >= 0
        );
        let spans = obs.drain_spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "pipeline.extract_stream")
            .collect();
        assert_eq!(roots.len(), 1);
        // 24 pages at 1-in-SPAN_SAMPLE sampling: page 0 only.
        let page_spans: Vec<_> = spans.iter().filter(|s| s.name == "stream.page").collect();
        assert_eq!(page_spans.len(), 1);
        for s in &page_spans {
            assert_eq!(s.parent, roots[0].id, "page span attached to root");
        }
    }

    #[test]
    fn busy_time_excludes_the_sink_and_scheduler_waits() {
        let (wrapper, main_block, clean, pages) = induce();
        let sleep = std::time::Duration::from_millis(1);
        for threads in [1, 2] {
            let stats = extract_stream(
                &wrapper,
                main_block.as_ref(),
                &clean,
                pages.iter().map(String::as_str),
                &StreamConfig {
                    threads: Some(threads),
                    ..StreamConfig::default()
                },
                |_, _| std::thread::sleep(sleep),
            );
            let slept = (sleep * pages.len() as u32).as_micros();
            assert!(
                stats.busy_micros < slept,
                "threads={threads}: busy {} µs counts the sink's {slept} µs of sleep",
                stats.busy_micros
            );
        }
    }

    #[test]
    fn deeply_nested_page_runs_on_a_small_stack() {
        let (wrapper, main_block, clean, _) = induce();
        let depth = 100_000;
        let html = format!(
            "<html><body>{}x{}</body></html>",
            "<div>".repeat(depth),
            "</div>".repeat(depth)
        );
        // A stack overflow aborts the process, so reaching `join` at
        // all is the assertion.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut doc = parse(&html);
                clean_document(&mut doc, &clean);
                let root = doc.root();
                assert!(objectrunner_html::to_html(&doc, root).contains('x'));
                assert!(!objectrunner_html::token_stream(&doc, root).is_empty());
                process_page(&html, &wrapper, main_block.as_ref(), &clean);
            })
            .expect("spawn")
            .join()
            .expect("deep page processed");
    }

    #[test]
    fn workers_never_outnumber_known_pages() {
        let (wrapper, main_block, clean, pages) = induce();
        let (got, stats) = streamed(&wrapper, main_block.as_ref(), &clean, &pages[..3], 8);
        assert_eq!(got.len(), 3);
        assert_eq!(stats.threads, 3);
        let (_, one) = streamed(&wrapper, main_block.as_ref(), &clean, &pages[..1], 8);
        assert_eq!(one.threads, 1, "a single page runs inline");
    }
}
