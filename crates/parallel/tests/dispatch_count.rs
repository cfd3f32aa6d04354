//! The dispatch counter, alone in its test binary: the counter is global,
//! and any other test running a kernel concurrently would bump it.

use p3gm_parallel::{par_map_reduce, pool_stats, with_threads};

#[test]
fn one_map_reduce_over_64_chunks_is_one_dispatch() {
    let before = pool_stats().dispatches_total;
    let sum = with_threads(2, || {
        par_map_reduce(64, 1, |range| range.start, |a, b| a + b)
    });
    assert_eq!(sum, Some((0..64).sum()));
    assert_eq!(pool_stats().dispatches_total - before, 1);
}
