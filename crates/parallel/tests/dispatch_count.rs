//! The dispatch counter, alone in its test binary: the counter is global,
//! and any other test running a kernel concurrently would bump it. The
//! tests here take turns through [`SERIAL`] for the same reason.

use p3gm_parallel::{par_map_reduce, par_map_reduce_with_prologue, pool_stats, with_threads};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Dispatches made by `f`, with no other test of this binary running.
fn dispatches<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = pool_stats().dispatches_total;
    let out = f();
    (out, pool_stats().dispatches_total - before)
}

#[test]
fn one_map_reduce_over_64_chunks_is_one_dispatch() {
    let (sum, count) = dispatches(|| {
        with_threads(2, || {
            par_map_reduce(64, 1, |range| range.start, |a, b| a + b)
        })
    });
    assert_eq!(sum, Some((0..64).sum()));
    assert_eq!(count, 1);
}

#[test]
fn one_prologue_map_reduce_over_64_chunks_is_one_dispatch() {
    let (out, count) = dispatches(|| {
        with_threads(2, || {
            par_map_reduce_with_prologue(64, 1, || "head", |range| range.start, |a, b| a + b)
        })
    });
    assert_eq!(out, ("head", Some((0..64).sum())));
    assert_eq!(count, 1);
}
