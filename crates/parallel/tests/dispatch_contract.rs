//! The dispatch contract of the parallel kernels:
//!
//! * a panic inside a chunk reaches the caller with its own payload,
//!   whether it happens on the calling thread or on a spawned helper, and
//!   no thread is left waiting;
//! * `par_map_reduce` keeps at most `4 × threads` unfolded partials alive;
//! * `par_map_reduce_with_prologue` returns its prologue's result, runs
//!   the prologue first on the serial path and beside mapping helpers
//!   otherwise, and passes on a panic from the prologue or from a helper
//!   while the prologue runs.
//!
//! Interleavings are forced with condition variables, never with sleeps:
//! a chunk that must wait for another thread blocks on a [`Gate`] or on a
//! count until that thread has provably reached the point in question.

use p3gm_parallel::{
    par_chunks_mut_map, par_map_chunks, par_map_reduce, par_map_reduce_with_prologue, with_threads,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Chunks per kernel call in the panic tests: more than any thread count
/// here, so the side that is held back cannot take every chunk.
const CHUNKS: usize = 16;

/// A one-shot gate: [`Gate::wait`] blocks until some thread has called
/// [`Gate::open`].
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Kernel {
    MapChunks,
    ChunksMutMap,
    MapReduce,
}

const KERNELS: [Kernel; 3] = [Kernel::MapChunks, Kernel::ChunksMutMap, Kernel::MapReduce];

/// Runs `kernel` over [`CHUNKS`] chunks, calling `body(chunk)` in each.
fn run(kernel: Kernel, body: &(dyn Fn(usize) + Sync)) {
    match kernel {
        Kernel::MapChunks => {
            par_map_chunks(CHUNKS, body);
        }
        Kernel::ChunksMutMap => {
            let mut data = [0u8; CHUNKS];
            par_chunks_mut_map(&mut data, 1, |index, _| body(index));
        }
        Kernel::MapReduce => {
            par_map_reduce(CHUNKS, 1, |range| body(range.start), |(), ()| ());
        }
    }
}

/// The message of a caught panic payload.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "<non-string payload>".to_string(), |s| s.to_string()),
    }
}

/// Runs `kernel` at `threads` with chunks that panic only on the calling
/// thread (`on_caller`) or only on helpers, and returns the message of
/// the panic that reached the caller. Chunks on the other side wait until
/// a panicking chunk has started, so both sides provably run chunks.
fn caught_panic(kernel: Kernel, threads: usize, on_caller: bool) -> String {
    let caller = thread::current().id();
    let gate = Gate::new();
    let body = |chunk: usize| {
        let side = if thread::current().id() == caller {
            "caller"
        } else {
            "helper"
        };
        if (side == "caller") == on_caller {
            gate.open();
            panic!("chunk {chunk} panicked on the {side}");
        }
        gate.wait();
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        with_threads(threads, || run(kernel, &body))
    }));
    message(result.expect_err("the panic must reach the caller"))
}

#[test]
fn a_panic_on_the_calling_thread_reaches_the_caller() {
    for kernel in KERNELS {
        for threads in [1, 2, 4] {
            let text = caught_panic(kernel, threads, true);
            assert!(
                text.ends_with("panicked on the caller"),
                "{kernel:?} at {threads} threads: {text}"
            );
        }
    }
}

#[test]
fn a_panic_on_a_helper_reaches_the_caller() {
    // One thread has no helpers: every chunk runs on the caller.
    for kernel in KERNELS {
        for threads in [2, 4] {
            let text = caught_panic(kernel, threads, false);
            assert!(
                text.ends_with("panicked on the helper"),
                "{kernel:?} at {threads} threads: {text}"
            );
        }
    }
}

#[test]
fn a_panic_in_the_fold_releases_helpers_waiting_on_the_window() {
    for threads in [1, 2, 4] {
        let window = 4 * threads;
        let mapped = Mutex::new(0usize);
        let more_mapped = Condvar::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(threads, || {
                par_map_reduce(
                    64,
                    1,
                    |range| {
                        *mapped.lock().unwrap() += 1;
                        more_mapped.notify_all();
                        range.start
                    },
                    |_, _| {
                        // The first fold runs with chunk 0 folded, so
                        // chunks 0..=window fill the window; once they are
                        // mapped every helper is waiting for it to open.
                        if threads > 1 {
                            let mut count = mapped.lock().unwrap();
                            while *count < window + 1 {
                                count = more_mapped.wait(count).unwrap();
                            }
                        }
                        panic!("the fold panicked")
                    },
                )
            })
        }));
        let text = message(result.expect_err("the fold's panic must reach the caller"));
        assert_eq!(text, "the fold panicked", "{threads} threads");
    }
}

/// Counts live [`Partial`]s, their peak, and how many were ever created.
#[derive(Default)]
struct Tracker {
    counts: Mutex<Counts>,
    created_more: Condvar,
}

#[derive(Default)]
struct Counts {
    live: usize,
    peak: usize,
    created: usize,
}

impl Tracker {
    fn wait_until_created(&self, at_least: usize) {
        let mut counts = self.counts.lock().unwrap();
        while counts.created < at_least {
            counts = self.created_more.wait(counts).unwrap();
        }
    }
}

/// A partial sum that tracks how many of its kind are alive.
struct Partial<'a> {
    tracker: &'a Tracker,
    sum: usize,
}

impl<'a> Partial<'a> {
    fn new(tracker: &'a Tracker, sum: usize) -> Self {
        let mut counts = tracker.counts.lock().unwrap();
        counts.live += 1;
        counts.peak = counts.peak.max(counts.live);
        counts.created += 1;
        tracker.created_more.notify_all();
        Partial { tracker, sum }
    }
}

impl Drop for Partial<'_> {
    fn drop(&mut self) {
        self.tracker.counts.lock().unwrap().live -= 1;
    }
}

#[test]
fn map_reduce_keeps_at_most_the_window_of_unfolded_partials_alive() {
    for threads in [2, 3] {
        let window = 4 * threads;
        let tracker = Tracker::default();
        let folds = AtomicUsize::new(0);
        let total = with_threads(threads, || {
            par_map_reduce(
                64,
                1,
                |range| {
                    // Hold the fold frontier at chunk 0 until the rest of
                    // the window is mapped, so the threads run as far
                    // ahead as the window lets them.
                    if range.start == 0 {
                        tracker.wait_until_created(window - 1);
                    }
                    Partial::new(&tracker, range.start)
                },
                |mut acc, partial| {
                    folds.fetch_add(1, Ordering::Relaxed);
                    acc.sum += partial.sum;
                    acc
                },
            )
        })
        .expect("64 items give a result");
        assert_eq!(total.sum, (0..64).sum::<usize>());
        assert_eq!(folds.load(Ordering::Relaxed), 63);
        drop(total);
        let counts = tracker.counts.lock().unwrap();
        assert_eq!((counts.live, counts.created), (0, 64));
        // The running fold (chunk 0's partial, folded into) is alive
        // beside the unfolded ones.
        assert!(
            counts.peak <= window + 1,
            "{threads} threads: {} partials alive at once, window {window}",
            counts.peak
        );
        assert!(
            counts.peak >= window,
            "{threads} threads: the window never filled (peak {})",
            counts.peak
        );
    }
}

/// How long a test waits for another thread before it gives up and
/// fails, so a broken overlap fails the test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(20);

/// A count that threads bump and others wait on.
#[derive(Default)]
struct Count {
    value: Mutex<usize>,
    changed: Condvar,
}

impl Count {
    fn bump(&self) {
        *self.value.lock().unwrap() += 1;
        self.changed.notify_all();
    }

    /// Waits until the count reaches `at_least`; `false` if it did not
    /// within [`PATIENCE`].
    fn wait_for(&self, at_least: usize) -> bool {
        let value = self.value.lock().unwrap();
        let (value, _) = self
            .changed
            .wait_timeout_while(value, PATIENCE, |value| *value < at_least)
            .unwrap();
        *value >= at_least
    }
}

#[test]
fn the_prologue_result_is_returned() {
    for threads in [1, 2, 4] {
        let (head, sum) = with_threads(threads, || {
            par_map_reduce_with_prologue(64, 1, || "head", |range| range.start, |a, b| a + b)
        });
        assert_eq!(
            (head, sum),
            ("head", Some((0..64).sum())),
            "{threads} threads"
        );
        let (head, empty) = with_threads(threads, || {
            par_map_reduce_with_prologue(0, 1, || 7, |range| range.start, |a, b| a + b)
        });
        assert_eq!((head, empty), (7, None), "{threads} threads, no items");
    }
}

#[test]
fn helpers_map_chunks_while_the_prologue_runs() {
    for threads in [2, 4] {
        let caller = thread::current().id();
        let by_helpers = Count::default();
        let (seen, total) = with_threads(threads, || {
            par_map_reduce_with_prologue(
                64,
                1,
                // The prologue returns only once a helper has mapped a
                // chunk, so the overlap is forced, not hoped for.
                || by_helpers.wait_for(1),
                |range| {
                    if thread::current().id() != caller {
                        by_helpers.bump();
                    }
                    range.start
                },
                |a, b| a + b,
            )
        });
        assert!(
            seen,
            "{threads} threads: no helper mapped a chunk during the prologue"
        );
        assert_eq!(total, Some((0..64).sum()), "{threads} threads");
    }
}

#[test]
fn a_panic_in_the_prologue_reaches_the_caller() {
    for threads in [1, 2, 4] {
        let window = 4 * threads;
        let mapped = Count::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(threads, || {
                par_map_reduce_with_prologue(
                    64,
                    1,
                    || {
                        // With helpers, wait until they have filled the
                        // window and are waiting for the fold to open it.
                        if threads > 1 {
                            assert!(
                                mapped.wait_for(window),
                                "the helpers never filled the window"
                            );
                        }
                        panic!("the prologue panicked")
                    },
                    |range| {
                        mapped.bump();
                        range.start
                    },
                    |a: usize, b| a + b,
                )
            })
        }));
        let text = message(result.expect_err("the prologue's panic must reach the caller"));
        assert_eq!(text, "the prologue panicked", "{threads} threads");
    }
}

#[test]
fn a_helper_panic_during_the_prologue_reaches_the_caller() {
    /// Bumps a count when its thread unwinds through it.
    struct OnUnwind<'a>(&'a Count);
    impl Drop for OnUnwind<'_> {
        fn drop(&mut self) {
            if thread::panicking() {
                self.0.bump();
            }
        }
    }
    for threads in [2, 4] {
        let caller = thread::current().id();
        let unwound = Count::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(threads, || {
                par_map_reduce_with_prologue(
                    64,
                    1,
                    // The prologue outlasts a helper's panic.
                    || assert!(unwound.wait_for(1), "no helper panicked"),
                    |range| {
                        if thread::current().id() != caller {
                            let _signal = OnUnwind(&unwound);
                            panic!("chunk {} panicked on a helper", range.start);
                        }
                        range.start
                    },
                    |a, b| a + b,
                )
            })
        }));
        let text = message(result.expect_err("the helper's panic must reach the caller"));
        assert!(
            text.ends_with("panicked on a helper"),
            "{threads} threads: {text}"
        );
    }
}

#[test]
fn the_serial_path_runs_the_prologue_first() {
    // One thread, and one chunk at four threads, both take the serial path.
    for (threads, items) in [(1, 16), (4, 1)] {
        let events = Mutex::new(Vec::new());
        let (_, sum) = with_threads(threads, || {
            par_map_reduce_with_prologue(
                items,
                1,
                || events.lock().unwrap().push(None),
                |range| {
                    events.lock().unwrap().push(Some(range.start));
                    range.start
                },
                |a, b| a + b,
            )
        });
        assert_eq!(sum, Some((0..items).sum()));
        let expected: Vec<_> = std::iter::once(None).chain((0..items).map(Some)).collect();
        assert_eq!(
            *events.lock().unwrap(),
            expected,
            "{threads} threads, {items} items"
        );
    }
}
