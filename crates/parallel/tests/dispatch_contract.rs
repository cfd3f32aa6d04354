//! The dispatch contract of the parallel kernels:
//!
//! * a panic inside a chunk reaches the caller with its own payload,
//!   whether it happens on the calling thread or on a spawned helper, and
//!   no thread is left waiting;
//! * `par_map_reduce` keeps at most `4 × threads` unfolded partials alive.
//!
//! Interleavings are forced with condition variables, never with sleeps:
//! a chunk that must wait for another thread blocks on a [`Gate`] or on a
//! count until that thread has provably reached the point in question.

use p3gm_parallel::{par_chunks_mut_map, par_map_chunks, par_map_reduce, with_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;

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
