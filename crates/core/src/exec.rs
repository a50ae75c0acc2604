//! The pipeline's one fan-out pool.
//!
//! Extraction is embarrassingly parallel across pages, so the
//! extract-only paths (`pipeline::extract_only_with` and
//! `stream::extract_stream`) run their per-page function through
//! `drive`: a small scoped-thread worker pool that hands each result
//! to a sink on the caller's thread **in item-index order**, so the
//! parallel output is byte-identical to the sequential one no matter
//! how the scheduler interleaves workers. Induction does not fan out:
//! it runs on its caller's thread, because parallelism pays across
//! sources and requests, not inside one source's ~20-page sample.
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
//!   the per-item function, which extraction surfaces as per-stage
//!   CPU time next to wall-clock time.
//!
//! Thread count resolution (see [`resolve_threads`]): an explicit
//! request wins, else the `OBJECTRUNNER_THREADS` environment variable,
//! else [`std::thread::available_parallelism`].

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

    /// Run `f` over `items` on `threads` workers, collecting results
    /// in the order the sink receives them.
    fn collect<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let mut out = Vec::with_capacity(items.len());
        drive(items.iter(), threads, items.len(), f, |_, r| out.push(r));
        out
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        // Uneven per-item cost to force out-of-order completion.
        let out = collect(&items, 8, |i, &x| {
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
        assert_eq!(collect(&items, 1, f), collect(&items, 8, f));
    }

    #[test]
    fn empty_and_single_batches_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(collect(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(collect(&[41u32], 8, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn drive_reports_busy_time() {
        let items: Vec<u32> = (0..8).collect();
        let run = drive(
            items.iter(),
            2,
            items.len(),
            |_, _| std::thread::sleep(Duration::from_millis(2)),
            |_, ()| {},
        );
        assert_eq!(run.pages, 8);
        assert!(
            run.busy >= Duration::from_millis(8),
            "busy = {:?}",
            run.busy
        );
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
