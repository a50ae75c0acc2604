//! The pipeline's one fan-out pool.
//!
//! Every per-page stage of the pipeline (parse, clean, segment,
//! annotate, extract) is embarrassingly parallel, and the §IV
//! self-validation loop is parallel across candidate support values.
//! `drive` is the one primitive they all share: it runs a function
//! over an iterator of items on a small scoped-thread worker pool and
//! hands each result to a sink on the caller's thread **in item-index
//! order**, so the parallel pipeline is byte-identical to the
//! sequential one no matter how the scheduler interleaves workers.
//! [`Executor`] carries the resolved thread count and runs slices
//! through it; the streaming extractor (`crate::stream`) runs page
//! iterators through it.
//!
//! Design constraints:
//!
//! * No heavy dependencies — the pool is hand-rolled on
//!   [`std::thread::scope`] with one mutex and two condition variables.
//! * Determinism by construction — workers claim item indices in
//!   source order, finished items park in a reorder buffer, and the
//!   caller drains it in index order, so output order never depends on
//!   thread timing.
//! * Bounded memory — workers stall while `claimed - emitted` reaches
//!   the window, so a page stream holds at most `window` pages at once.
//!   A slice run passes a window as long as the slice, so a slow item
//!   never stalls the other workers.
//! * Honest accounting — every run reports the summed time spent inside
//!   the per-item function, which the pipeline surfaces as per-stage
//!   CPU time next to wall-clock time.
//!
//! Thread count resolution (see [`resolve_threads`]): an explicit
//! `PipelineConfig::threads` wins, else the `OBJECTRUNNER_THREADS`
//! environment variable, else [`std::thread::available_parallelism`].

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "OBJECTRUNNER_THREADS";

/// Resolve the worker-thread count: explicit request → `OBJECTRUNNER_THREADS`
/// → available parallelism (floor 1).
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width worker pool over slices.
///
/// The executor owns no threads between calls: each `map`/`for_each`
/// runs `drive` with at most `threads` scoped workers, which exit
/// when the batch is drained. For the pipeline's batch sizes (tens of
/// pages, a handful of support values) spawn cost is noise next to
/// item cost.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (floor 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The single-threaded executor (runs everything inline).
    pub fn sequential() -> Executor {
        Executor::new(1)
    }

    /// An executor sized by [`resolve_threads`].
    pub fn from_env(requested: Option<usize>) -> Executor {
        Executor::new(resolve_threads(requested))
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, returning results in item order.
    pub fn map<T, R>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_timed(items, f).0
    }

    /// [`Executor::map`] plus the summed busy time of all workers (the
    /// stage's CPU cost, as opposed to its wall-clock cost).
    pub fn map_timed<T, R>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> (Vec<R>, Duration)
    where
        T: Sync,
        R: Send,
    {
        let mut out = Vec::with_capacity(items.len());
        let run = drive(items.iter(), self.threads, items.len(), f, |_, r| {
            out.push(r)
        });
        (out, run.busy)
    }

    /// Apply `f` to every item in place (per-page stages that mutate
    /// documents: cleaning, main-block simplification). Returns the
    /// summed worker busy time.
    pub fn for_each_mut<T>(&self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) -> Duration
    where
        T: Send,
    {
        let window = items.len();
        drive(items.iter_mut(), self.threads, window, f, |_, ()| {}).busy
    }
}

/// Totals of one [`drive`] run.
pub(crate) struct DriveStats {
    /// Items consumed from the source.
    pub pages: usize,
    /// Workers the run used (an inline run counts the caller's thread).
    pub workers: usize,
    /// Summed time spent inside the per-item function.
    pub busy: Duration,
}

/// Shared scheduler state: the source iterator, the reorder buffer,
/// and the claim/emit cursors, all under one lock.
struct State<I, T> {
    source: I,
    claimed: usize,
    emitted: usize,
    source_done: bool,
    ready: BTreeMap<usize, T>,
}

/// Run `work(index, item)` over every item on up to `threads` workers
/// and hand each result to `sink(index, result)` in item order on the
/// caller's thread, with at most `window` items claimed but not yet
/// emitted. Never starts more workers than the source's size hint says
/// there are items; one worker runs inline with no pool and no locks.
pub(crate) fn drive<I, T, W, F>(
    items: I,
    threads: usize,
    window: usize,
    work: W,
    mut sink: F,
) -> DriveStats
where
    I: IntoIterator,
    I::IntoIter: Send,
    I::Item: Send,
    T: Send,
    W: Fn(usize, I::Item) -> T + Sync,
    F: FnMut(usize, T),
{
    let source = items.into_iter();
    let workers = threads
        .min(source.size_hint().1.unwrap_or(usize::MAX))
        .max(1);
    let mut run = DriveStats {
        pages: 0,
        workers,
        busy: Duration::ZERO,
    };

    if workers == 1 {
        for (i, item) in source.enumerate() {
            let start = Instant::now();
            let out = work(i, item);
            run.busy += start.elapsed();
            run.pages += 1;
            sink(i, out);
        }
        return run;
    }

    let window = window.max(1);
    let state = Mutex::new(State {
        source,
        claimed: 0,
        emitted: 0,
        source_done: false,
        ready: BTreeMap::new(),
    });
    // Workers wait on `space` when the window is full; the caller's
    // thread waits on `ready` for the next in-order item.
    let space = Condvar::new();
    let ready = Condvar::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut busy = Duration::ZERO;
                loop {
                    let claim = {
                        let mut st = state.lock().expect("pool worker panicked");
                        loop {
                            if st.source_done {
                                break None;
                            }
                            if st.claimed - st.emitted < window {
                                match st.source.next() {
                                    Some(item) => {
                                        let i = st.claimed;
                                        st.claimed += 1;
                                        break Some((i, item));
                                    }
                                    None => {
                                        st.source_done = true;
                                        // Unblock everyone for shutdown.
                                        space.notify_all();
                                        ready.notify_all();
                                        break None;
                                    }
                                }
                            }
                            st = space.wait(st).expect("pool worker panicked");
                        }
                    };
                    let Some((i, item)) = claim else { break };
                    let start = Instant::now();
                    let out = work(i, item);
                    busy += start.elapsed();
                    let mut st = state.lock().expect("pool worker panicked");
                    st.ready.insert(i, out);
                    // Only the in-order item unblocks the consumer,
                    // but waking it on any insert keeps this simple
                    // and the consumer re-checks under the lock.
                    ready.notify_all();
                }
                busy
            }));
        }

        // Consumer: drain the reorder buffer in index order on the
        // caller's thread; the sink always runs outside the lock.
        loop {
            let next = {
                let mut st = state.lock().expect("pool worker panicked");
                loop {
                    let i = st.emitted;
                    if let Some(out) = st.ready.remove(&i) {
                        st.emitted += 1;
                        space.notify_all();
                        break Some((i, out));
                    }
                    if st.source_done && st.emitted == st.claimed {
                        break None;
                    }
                    st = ready.wait(st).expect("pool worker panicked");
                }
            };
            let Some((i, out)) = next else { break };
            run.pages += 1;
            sink(i, out);
        }

        for handle in handles {
            run.busy += handle.join().expect("pool worker panicked");
        }
    });
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        let exec = Executor::new(8);
        let items: Vec<usize> = (0..257).collect();
        // Uneven per-item cost to force out-of-order completion.
        let out = exec.map(&items, |i, &x| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_sequential_exactly() {
        let items: Vec<String> = (0..64).map(|i| format!("item-{i}")).collect();
        let f = |i: usize, s: &String| format!("{i}:{s}");
        let seq = Executor::sequential().map(&items, f);
        let par = Executor::new(8).map(&items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let exec = Executor::new(4);
        let mut items = vec![0u32; 100];
        exec.for_each_mut(&mut items, |i, x| *x += i as u32 + 1);
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i as u32 + 1);
        }
    }

    #[test]
    fn empty_and_single_batches_work() {
        let exec = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(exec.map(&empty, |_, &x| x).is_empty());
        assert_eq!(exec.map(&[41u32], |_, &x| x + 1), vec![42]);
        let mut one = [10u32];
        exec.for_each_mut(&mut one, |_, x| *x *= 2);
        assert_eq!(one, [20]);
    }

    #[test]
    fn map_timed_reports_busy_time() {
        let exec = Executor::new(2);
        let items: Vec<u32> = (0..8).collect();
        let (_, busy) = exec.map_timed(&items, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(busy >= Duration::from_millis(8), "busy = {busy:?}");
    }

    #[test]
    fn resolve_threads_precedence() {
        // Explicit wins regardless of environment.
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "floor at one worker");
        // Default path yields at least one worker.
        assert!(resolve_threads(None) >= 1);
    }
}
