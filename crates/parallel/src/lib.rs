//! # p3gm-parallel
//!
//! Std-only, deterministic data parallelism for the P3GM workspace.
//!
//! The numeric hot paths of the reproduction (per-example DP-SGD gradients,
//! the DP-EM E-step, PCA covariance accumulation, batched matrix products)
//! are all embarrassingly parallel over rows of a contiguous
//! `p3gm_linalg::Matrix` batch. This crate provides the minimal scoped
//! parallel kernels those hot paths need, with one hard guarantee:
//!
//! **Results are bit-identical regardless of the number of worker threads.**
//!
//! Determinism is achieved structurally, not by locking:
//!
//! * Work is split into *chunks* whose boundaries depend only on the problem
//!   size (never on the thread count) — see [`chunk_count`].
//! * Chunks are mapped independently; writes are to disjoint regions.
//! * Reductions combine per-chunk partial results **sequentially, in chunk
//!   order** on the calling thread, so floating-point accumulation order is
//!   fixed. A run with one thread and a run with sixteen fold the exact same
//!   partials in the exact same order.
//!
//! Each parallel kernel call is **one dispatch**: one
//! [`std::thread::scope`] in which the calling thread works chunks itself
//! beside `threads − 1` spawned helpers, all claiming chunks dynamically.
//! [`par_map_reduce`] folds inside that same scope, with helpers held to a
//! bounded window ahead of the fold. A panic in any chunk, on any thread,
//! reaches the caller once every thread has stopped.
//!
//! [`par_map_reduce_with_prologue`] is the same single dispatch with one
//! addition: before the calling thread joins the map, it runs a serial
//! prologue of the caller's own while the helpers already map chunks.
//! Serial work that does not depend on the chunks' results, such as
//! drawing a DP-SGD step's noise vector from the caller's rng, then
//! overlaps the parallel map instead of idling the helpers after it.
//! [`par_map_reduce`] is that call with an empty prologue.
//!
//! The thread count is resolved per call site by [`max_threads`]:
//! a scoped [`with_threads`] override (used by benchmarks and the
//! determinism test-suite) takes precedence, then the `P3GM_THREADS`
//! environment variable, then [`std::thread::available_parallelism`].
//! Parallelism does **not** nest: a kernel invoked from inside a chunk of a
//! parallel call runs serially, whichever thread runs that chunk, so one
//! fan-out level never oversubscribes the machine and a pinned thread count
//! is honored transitively.
//!
//! There is no persistent pool: parked workers running borrowed closures
//! would need `unsafe` to erase lifetimes. Everything is built on
//! [`std::thread::scope`] — no unsafe code, no dependencies — so the
//! workspace keeps building offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Chunks currently executing across every kernel in the process.
static CHUNKS_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
/// Chunks ever dispatched (monotone; identical for any thread count because
/// chunk boundaries are a pure function of the problem size).
static CHUNKS_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Kernel calls that spawned helper threads (monotone).
static DISPATCHES_TOTAL: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process-wide pool counters, for
/// observability exporters (the HTTP server re-exports these on
/// `GET /metrics`). This crate deliberately has no dependency on the
/// metrics registry; it only exposes raw counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks executing right now (the queue-depth gauge). Instantaneous
    /// and inherently racy; 0 whenever the process is quiescent.
    pub chunks_in_flight: usize,
    /// Total chunks dispatched since process start. Deterministic across
    /// thread counts for a fixed workload (chunk boundaries never depend
    /// on the worker count).
    pub chunks_total: u64,
    /// Total kernel calls that spawned helper threads since process
    /// start: one per parallel call, whatever its chunk count. Calls that
    /// ran serially (one thread configured, or a single chunk) spawn
    /// nothing and are not counted.
    pub dispatches_total: u64,
}

/// Read the process-wide pool counters. Each field is loaded independently
/// (relaxed), so a snapshot taken mid-kernel may tear between fields; the
/// monotone totals are individually exact.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        chunks_in_flight: CHUNKS_IN_FLIGHT.load(Ordering::Relaxed),
        chunks_total: CHUNKS_TOTAL.load(Ordering::Relaxed),
        dispatches_total: DISPATCHES_TOTAL.load(Ordering::Relaxed),
    }
}

/// RAII accounting for one executing chunk: bumps the monotone total and
/// holds the in-flight gauge for the duration (panic-safe via `Drop`).
struct ChunkGuard;

impl ChunkGuard {
    fn begin() -> Self {
        CHUNKS_IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        CHUNKS_TOTAL.fetch_add(1, Ordering::Relaxed);
        ChunkGuard
    }
}

impl Drop for ChunkGuard {
    fn drop(&mut self) {
        CHUNKS_IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads parallel kernels invoked from this thread
/// will use.
///
/// Resolution order: a [`with_threads`] override on the calling thread, the
/// `P3GM_THREADS` environment variable (a positive integer), then the
/// machine's [`std::thread::available_parallelism`]. Always at least 1.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(value) = std::env::var("P3GM_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the worker-thread count pinned to `n` on the calling
/// thread (nested calls restore the previous override on exit, including on
/// panic).
///
/// Used by the kernel benchmarks (`threads=1/2/4` sweeps) and the
/// determinism property tests; library code normally relies on the ambient
/// [`max_threads`] resolution.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let previous = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(previous);
    f()
}

/// Number of fixed-size chunks a problem of `n_items` splits into.
///
/// The boundaries depend only on `n_items` and `chunk_len` — never on the
/// thread count — which is what makes chunked reductions deterministic.
pub fn chunk_count(n_items: usize, chunk_len: usize) -> usize {
    n_items.div_ceil(chunk_len.max(1))
}

/// The default chunk length for a problem of `n_items` work items.
///
/// Targets a fixed number of chunks (64) independent of the machine, so
/// chunk boundaries — and therefore reduction order — are a pure function
/// of the problem size. 64 chunks keep every realistic worker count busy
/// while amortizing dispatch overhead.
pub fn default_chunk_len(n_items: usize) -> usize {
    n_items.div_ceil(64).max(1)
}

/// The default chunk length rounded **up** to a whole number of `tile`-row
/// groups, for row-parallel kernels whose microkernel processes `tile` rows
/// at a time.
///
/// Every chunk except possibly the last then holds only whole tiles, so a
/// register-tiled kernel never straddles a chunk boundary mid-tile. Like
/// [`default_chunk_len`], the result depends only on the problem size —
/// never on the thread count — preserving bit-identical chunk boundaries.
pub fn default_tile(n_items: usize, tile: usize) -> usize {
    let tile = tile.max(1);
    default_chunk_len(n_items).div_ceil(tile) * tile
}

/// The index range covered by chunk `index` of a problem of `n_items` items
/// split into `chunk_len`-sized chunks.
pub fn chunk_range(n_items: usize, chunk_len: usize, index: usize) -> Range<usize> {
    let chunk_len = chunk_len.max(1);
    let start = index * chunk_len;
    start..((start + chunk_len).min(n_items))
}

/// Runs a kernel's share of work with nested parallel kernels pinned to
/// serial: the dispatch's threads are already the parallelism, so a kernel
/// invoked *inside* a chunk (e.g. a classifier's batched forward pass
/// inside the suite fan-out) must not spawn its own helpers on top — that
/// would oversubscribe the machine and ignore a [`with_threads`] pin on
/// the caller (the override is thread-local and would otherwise not be
/// visible on a helper). The calling thread's share is pinned too, so a
/// chunk sees the same setting wherever it runs.
fn run_pinned_serial<R>(f: impl FnOnce() -> R) -> R {
    with_threads(1, f)
}

/// One dispatch of a parallel kernel call: up to `threads - 1` spawned
/// helpers run `helper` while the calling thread runs `caller`, all pinned
/// serial. Returns the caller's result and the helpers' results once every
/// helper has finished.
///
/// Callers must not depend on any helper running: the caller works chunks
/// too, so a helper the OS refuses to spawn only costs parallelism.
///
/// A panic on any thread reaches the caller after all threads have
/// stopped: the caller's own panic unwinds through the scope (which joins
/// the helpers first), and a helper's panic is re-raised on the caller
/// with its original payload. Kernels whose threads wait on each other
/// must wake those waiters when a thread panics (see [`FoldWindow`]).
fn dispatch<C, H: Send>(
    threads: usize,
    helper: impl Fn() -> H + Sync,
    caller: impl FnOnce() -> C,
) -> (C, Vec<H>) {
    DISPATCHES_TOTAL.fetch_add(1, Ordering::Relaxed);
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .map_while(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(s, || run_pinned_serial(&helper))
                    .ok()
            })
            .collect();
        let mine = run_pinned_serial(caller);
        let joined: Vec<_> = helpers.into_iter().map(|h| h.join()).collect();
        let theirs = joined
            .into_iter()
            .map(|result| result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        (mine, theirs)
    })
}

/// Runs `f` on every item `claim` hands out — on the calling thread alone
/// when `threads <= 1`, else on the caller and `threads - 1` helpers
/// claiming dynamically — and returns the results **in item-index order**.
fn map_claimed<T, R: Send>(
    threads: usize,
    claim: impl Fn() -> Option<(usize, T)> + Sync,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let work = || {
        let mut done = Vec::new();
        while let Some((index, item)) = claim() {
            let _chunk = ChunkGuard::begin();
            done.push((index, f(index, item)));
        }
        done
    };
    let tagged = if threads <= 1 {
        work()
    } else {
        let (mut mine, theirs) = dispatch(threads, work, work);
        mine.extend(theirs.into_iter().flatten());
        mine.sort_unstable_by_key(|(index, _)| *index);
        mine
    };
    tagged.into_iter().map(|(_, value)| value).collect()
}

/// Maps `f` over chunk indices `0..n_chunks` on up to [`max_threads`]
/// threads (the caller plus spawned helpers) and returns the results **in
/// chunk order**.
///
/// `f` must depend only on its chunk index (and captured shared state);
/// scheduling is dynamic (atomic work counter) but the output order is
/// index-sorted, so the result is independent of the thread count. Nested
/// parallel kernels invoked from inside `f` run serially.
pub fn par_map_chunks<R: Send>(n_chunks: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let claim = || {
        let index = next.fetch_add(1, Ordering::Relaxed);
        (index < n_chunks).then_some((index, ()))
    };
    map_claimed(max_threads().min(n_chunks), claim, |index, ()| f(index))
}

/// Splits `data` into `chunk_len`-sized chunks, applies `f(chunk_index,
/// chunk)` to each on up to [`max_threads`] threads, and returns the
/// per-chunk results **in chunk order**.
///
/// This is the mutable workhorse: disjoint `&mut` chunks are handed to
/// threads (so e.g. each fills its rows of a per-example gradient matrix)
/// while the per-chunk return values carry side statistics (losses,
/// partial sums) back for an in-order fold.
pub fn par_chunks_mut_map<T: Send, R: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let chunk_len = chunk_len.max(1);
    let threads = max_threads().min(chunk_count(data.len(), chunk_len));
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let claim = || queue.lock().expect("p3gm-parallel queue poisoned").next();
    map_claimed(threads, claim, f)
}

/// Like [`par_chunks_mut_map`] but discards the per-chunk results.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    par_chunks_mut_map(data, chunk_len, f);
}

/// Deterministic ordered map-reduce over the index range `0..n_items`.
///
/// The range is split into `chunk_len`-sized chunks (boundaries depend only
/// on `n_items`), `map` produces one partial result per chunk in parallel,
/// and `reduce` folds the partials **sequentially in chunk order** on the
/// calling thread. Returns `None` for an empty range.
///
/// Because both the chunk boundaries and the fold order are fixed, the
/// result is bit-identical for every thread count — including 1. The
/// whole call is one dispatch: the calling thread maps chunks beside
/// `threads - 1` helpers and folds each partial as soon as every chunk
/// before it has been folded. To bound peak memory when partials are large
/// (e.g. per-chunk Gram matrices), no chunk is claimed more than
/// `4 × threads` chunks ahead of the fold frontier, so at most that many
/// unfolded partials are alive at once besides the running fold. `reduce`
/// runs on the calling thread with nested kernels pinned serial.
pub fn par_map_reduce<R: Send>(
    n_items: usize,
    chunk_len: usize,
    map: impl Fn(Range<usize>) -> R + Sync,
    reduce: impl FnMut(R, R) -> R,
) -> Option<R> {
    par_map_reduce_with_prologue(n_items, chunk_len, || (), map, reduce).1
}

/// [`par_map_reduce`] whose calling thread first runs `prologue`, serial
/// work of its own, while the helpers already map chunks; it then maps
/// and folds as [`par_map_reduce`] does. Still one dispatch. Returns the
/// prologue's result beside the fold's.
///
/// This lets data-independent serial work, such as drawing a DP-SGD
/// step's noise from the caller's rng, overlap the parallel map instead of
/// leaving the helpers idle after the dispatch. The prologue runs exactly
/// once, on the calling thread, before any chunk that thread maps, and
/// with nested kernels pinned serial; on the serial path (one thread or
/// one chunk) it simply runs first. While it runs, helpers map at most
/// the window's `4 × threads` chunks. A panic in the prologue, or in a
/// helper while it runs, reaches the caller like any other panic of the
/// dispatch, once the prologue has returned or unwound.
pub fn par_map_reduce_with_prologue<P, R: Send>(
    n_items: usize,
    chunk_len: usize,
    prologue: impl FnOnce() -> P,
    map: impl Fn(Range<usize>) -> R + Sync,
    mut reduce: impl FnMut(R, R) -> R,
) -> (P, Option<R>) {
    let chunk_len = chunk_len.max(1);
    let n_chunks = chunk_count(n_items, chunk_len);
    let map_chunk = |index: usize| {
        let _chunk = ChunkGuard::begin();
        map(chunk_range(n_items, chunk_len, index))
    };
    let threads = max_threads().min(n_chunks);
    if threads <= 1 {
        let head = prologue();
        return (head, (0..n_chunks).map(map_chunk).reduce(reduce));
    }

    let window = FoldWindow::new(n_chunks, 4 * threads);
    let helper = || {
        let _abort = AbortOnPanic(&window);
        while let Some(index) = window.claim_ahead() {
            window.finish(index, map_chunk(index));
        }
    };
    let caller = || {
        let _abort = AbortOnPanic(&window);
        let head = prologue();
        let mut acc: Option<R> = None;
        for frontier in 0..n_chunks {
            let partial = loop {
                match window.next_for_fold(frontier)? {
                    FoldStep::Fold(partial) => break partial,
                    FoldStep::Map(index) if index == frontier => break map_chunk(index),
                    FoldStep::Map(index) => window.finish(index, map_chunk(index)),
                }
            };
            acc = Some(match acc {
                None => partial,
                Some(folded) => reduce(folded, partial),
            });
            window.advance(frontier + 1);
        }
        Some((head, acc))
    };
    // A `None` from the caller means a helper panicked; `dispatch` then
    // re-raises that panic instead of returning.
    dispatch(threads, helper, caller)
        .0
        .expect("a helper's panic is re-raised before the dispatch returns")
}

/// No user code runs while the window's lock is held, so it cannot be
/// poisoned short of a bug in this crate.
const POISONED: &str = "p3gm-parallel fold window poisoned";

/// The shared state of one parallel [`par_map_reduce`]: which chunk is
/// claimed next, how far the caller has folded, and a ring of finished
/// partials. Every chunk claimed but not yet folded lies in
/// `frontier..frontier + slots.len()`, so each has its own slot
/// (`index % slots.len()`) and at most `slots.len()` are alive.
struct FoldWindow<R> {
    state: Mutex<WindowState<R>>,
    n_chunks: usize,
    /// Wakes the caller: the frontier chunk's partial landed, or a helper
    /// panicked.
    landed: Condvar,
    /// Wakes helpers: the frontier advanced, or a thread panicked.
    opened: Condvar,
}

struct WindowState<R> {
    next: usize,
    frontier: usize,
    slots: Vec<Option<R>>,
    aborted: bool,
}

/// What the caller of a parallel [`par_map_reduce`] does next.
enum FoldStep<R> {
    /// Fold this partial of the frontier chunk.
    Fold(R),
    /// Map this chunk, which the caller has just claimed.
    Map(usize),
}

impl<R> FoldWindow<R> {
    fn new(n_chunks: usize, width: usize) -> Self {
        FoldWindow {
            state: Mutex::new(WindowState {
                next: 0,
                frontier: 0,
                slots: (0..width).map(|_| None).collect(),
                aborted: false,
            }),
            n_chunks,
            landed: Condvar::new(),
            opened: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WindowState<R>> {
        self.state.lock().expect(POISONED)
    }

    /// Claims the next chunk if it lies inside the window, where `state`
    /// is the held lock.
    fn claim_in(&self, state: &mut WindowState<R>) -> Option<usize> {
        let index = state.next;
        (index < self.n_chunks && index < state.frontier + state.slots.len()).then(|| {
            state.next += 1;
            index
        })
    }

    /// A helper's next chunk: waits while the window is full, and returns
    /// `None` once every chunk is claimed or a thread panicked.
    fn claim_ahead(&self) -> Option<usize> {
        let mut state = self.lock();
        loop {
            if state.aborted || state.next >= self.n_chunks {
                return None;
            }
            if let Some(index) = self.claim_in(&mut state) {
                return Some(index);
            }
            state = self.opened.wait(state).expect(POISONED);
        }
    }

    /// Stores chunk `index`'s partial until the caller folds it.
    fn finish(&self, index: usize, partial: R) {
        let mut state = self.lock();
        let width = state.slots.len();
        state.slots[index % width] = Some(partial);
        if index == state.frontier {
            self.landed.notify_one();
        }
    }

    /// The caller's next step toward folding chunk `frontier`: fold its
    /// partial if it is ready, else map a chunk of the window, else wait.
    /// `None` means a helper panicked.
    fn next_for_fold(&self, frontier: usize) -> Option<FoldStep<R>> {
        let mut state = self.lock();
        loop {
            if state.aborted {
                return None;
            }
            let width = state.slots.len();
            if let Some(partial) = state.slots[frontier % width].take() {
                return Some(FoldStep::Fold(partial));
            }
            if let Some(index) = self.claim_in(&mut state) {
                return Some(FoldStep::Map(index));
            }
            state = self.landed.wait(state).expect(POISONED);
        }
    }

    /// Marks every chunk before `frontier` folded, opening the window.
    fn advance(&self, frontier: usize) {
        self.lock().frontier = frontier;
        self.opened.notify_all();
    }
}

/// A guard held by every thread of a parallel [`par_map_reduce`]: if its
/// thread unwinds, it stops the dispatch and wakes every waiter, so no
/// thread is left waiting on a fold that will never come.
struct AbortOnPanic<'a, R>(&'a FoldWindow<R>);

impl<R> Drop for AbortOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Setting a flag leaves the state valid whatever a panicking
            // thread was doing, so a poisoned lock is still usable here.
            let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.aborted = true;
            drop(state);
            self.0.landed.notify_all();
            self.0.opened.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_a_pure_function_of_the_problem_size() {
        assert_eq!(chunk_count(10, 3), 4);
        assert_eq!(chunk_count(0, 3), 0);
        assert_eq!(chunk_range(10, 3, 0), 0..3);
        assert_eq!(chunk_range(10, 3, 3), 9..10);
        assert_eq!(default_chunk_len(0), 1);
        assert_eq!(default_chunk_len(64), 1);
        assert_eq!(default_chunk_len(6400), 100);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = max_threads();
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            with_threads(1, || assert_eq!(max_threads(), 1));
            assert_eq!(max_threads(), 3);
        });
        assert_eq!(max_threads(), ambient);
    }

    #[test]
    fn par_map_chunks_preserves_chunk_order() {
        for threads in [1, 2, 4, 8] {
            let out = with_threads(threads, || par_map_chunks(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_regions() {
        for threads in [1, 2, 4] {
            let mut data = vec![0usize; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut data, 7, |index, chunk| {
                    for (offset, value) in chunk.iter_mut().enumerate() {
                        *value = index * 7 + offset;
                    }
                });
            });
            assert_eq!(data, (0..103).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_mut_map_returns_ordered_side_results() {
        let mut data = vec![1.0f64; 50];
        let sums = with_threads(4, || {
            par_chunks_mut_map(&mut data, 8, |_, chunk| {
                for value in chunk.iter_mut() {
                    *value *= 2.0;
                }
                chunk.len()
            })
        });
        assert_eq!(sums, vec![8, 8, 8, 8, 8, 8, 2]);
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn par_map_reduce_is_bit_identical_across_thread_counts() {
        // A floating-point sum whose value depends on accumulation order:
        // identical bits across thread counts proves the order is fixed.
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 * 1e-3 + 1e-12 * i as f64)
            .collect();
        let sum_with = |threads: usize| {
            with_threads(threads, || {
                par_map_reduce(
                    values.len(),
                    default_chunk_len(values.len()),
                    |range| values[range].iter().sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap()
            })
        };
        let reference = sum_with(1);
        for threads in [2, 3, 4, 16] {
            assert_eq!(reference.to_bits(), sum_with(threads).to_bits());
        }
    }

    #[test]
    fn nested_kernels_run_serially_inside_workers() {
        // A kernel invoked from inside a worker must see a pinned serial
        // thread count, so fan-outs cannot oversubscribe and a caller's
        // with_threads pin is honored transitively.
        let nested_counts = with_threads(4, || par_map_chunks(8, |_| max_threads()));
        assert!(nested_counts.iter().all(|&n| n == 1), "{nested_counts:?}");
        // Inline execution (single thread) keeps the ambient setting.
        let inline_counts = with_threads(1, || par_map_chunks(3, |_| max_threads()));
        assert!(inline_counts.iter().all(|&n| n == 1));
    }

    #[test]
    fn par_map_reduce_empty_is_none() {
        assert_eq!(
            par_map_reduce(0, 4, |_| 0.0f64, |a, b| a + b).map(|v| v.to_bits()),
            None
        );
    }

    #[test]
    fn pool_stats_totals_are_monotone_and_count_chunks() {
        // Other tests in this binary run concurrently, so only assert on
        // deltas of the monotone totals — they can over-count, never under.
        let before = pool_stats();
        with_threads(2, || {
            par_map_chunks(10, |i| i);
        });
        let after = pool_stats();
        assert!(after.chunks_total >= before.chunks_total + 10);
        assert!(after.dispatches_total > before.dispatches_total);
    }

    #[test]
    fn env_override_is_read_when_no_scoped_override() {
        // Can only be asserted when the variable is absent or the scoped
        // override is active; the scoped override always wins.
        with_threads(2, || assert_eq!(max_threads(), 2));
        assert!(max_threads() >= 1);
    }
}
