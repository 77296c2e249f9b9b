//! Parallel partitioned map over index ranges.
//!
//! The analyses are CPU-bound batch passes over millions of samples —
//! exactly the workload the async guides say to keep off an async
//! runtime. [`partition_ranges`] splits `0..n` into contiguous chunks
//! and [`map_ranges_obs`] runs a worker per chunk on `std::thread::scope`
//! threads and returns the per-chunk results in order, timing each
//! worker when the registry is enabled; [`map_ranges_with_obs`] also
//! moves one payload into each worker. A study enters it in few places:
//! generation, the table build's column fill, the *S* scan, and the
//! roster fold ([`crate::incremental`]), which splits a table's samples
//! once and runs every stage serially over each range.

use std::num::NonZeroUsize;
use std::time::Instant;

use vt_obs::{saturating_ns, Obs};

/// Most worker threads a pass splits across: the passes are
/// memory-bandwidth-bound beyond this, and each worker holds its own
/// accumulators.
pub const MAX_WORKERS: usize = 16;

/// Number of worker threads to use: the available parallelism, capped
/// at [`MAX_WORKERS`].
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
        .min(MAX_WORKERS)
}

/// The contiguous ranges `workers` threads split `0..n` into: at most
/// `workers` of them, none empty, so `n = 0` yields no range at all.
/// Public so a caller can align per-range state (the table build's
/// column windows) with the ranges before mapping over them.
pub fn partition_ranges(n: u64, workers: usize) -> Vec<std::ops::Range<u64>> {
    let workers = workers.max(1).min(n.max(1) as usize);
    let chunk = n.div_ceil(workers as u64);
    (0..workers as u64)
        .map(|w| {
            let start = w * chunk;
            let end = ((w + 1) * chunk).min(n);
            start..end
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `f(partition_index, range)` for each range on its own scoped
/// thread and returns the results in range order (with one range it
/// runs inline), instrumented per worker: each range's wall time lands
/// in the `par/<kernel>/worker_busy_ns` histogram, the spread between
/// the slowest and the mean worker in the `par/<kernel>/imbalance_pct`
/// gauge (100 = perfectly balanced, 200 = slowest worker ran twice the
/// mean; high-water across invocations), and each call bumps
/// `par/<kernel>/invocations`.
///
/// Timing wraps whole ranges, never items, so the hot loop is
/// untouched; all recording happens on the calling thread after the
/// join. With a disabled `obs` (e.g. [`Obs::noop`]) nothing is timed or
/// recorded — results are identical either way. The payload-free case
/// of [`map_ranges_with_obs`], which holds the one recording tail.
///
/// `f` must be deterministic per range for study reproducibility — all
/// callers derive their randomness from sample ordinals, never from
/// thread identity.
pub fn map_ranges_obs<T, F>(
    ranges: &[std::ops::Range<u64>],
    obs: &Obs,
    kernel: &str,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<u64>) -> T + Sync,
{
    map_ranges_with_obs(ranges, vec![(); ranges.len()], obs, kernel, |i, r, ()| {
        f(i, r)
    })
}

/// The one thread-scope body: `f(partition_index, range, payload)` for
/// each range on its own scoped thread (inline for one range), results
/// in range order.
///
/// # Panics
/// Panics if `payloads.len() != ranges.len()`.
fn map_ranges_with<P, T, F>(ranges: &[std::ops::Range<u64>], payloads: Vec<P>, f: F) -> Vec<T>
where
    P: Send,
    T: Send,
    F: Fn(usize, std::ops::Range<u64>, P) -> T + Sync,
{
    assert_eq!(payloads.len(), ranges.len(), "one payload per range");
    let work = ranges.iter().cloned().zip(payloads).enumerate();
    if ranges.len() <= 1 {
        return work.map(|(i, (r, p))| f(i, r, p)).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = work
            .map(|(i, (r, p))| scope.spawn(move || f(i, r, p)))
            .collect();
        (handles.into_iter())
            .map(|handle| handle.join().expect("analysis worker panicked"))
            .collect()
    })
}

/// [`map_ranges_obs`], but each range additionally *owns* one payload
/// from `payloads` (moved into its worker), with the same per-worker
/// instrumentation. This is how the columnar table build hands every
/// worker a disjoint `&mut` window of the final column buffers: the
/// caller `split_at_mut`s the columns along the range boundaries, and
/// each worker writes its slice directly — no per-worker allocation, no
/// concat pass.
///
/// # Panics
/// Panics if `payloads.len() != ranges.len()`.
pub fn map_ranges_with_obs<P, T, F>(
    ranges: &[std::ops::Range<u64>],
    payloads: Vec<P>,
    obs: &Obs,
    kernel: &str,
    f: F,
) -> Vec<T>
where
    P: Send,
    T: Send,
    F: Fn(usize, std::ops::Range<u64>, P) -> T + Sync,
{
    if !obs.is_enabled() {
        return map_ranges_with(ranges, payloads, f);
    }
    let timed = map_ranges_with(ranges, payloads, |i, r, p| {
        let start = Instant::now();
        let out = f(i, r, p);
        (out, saturating_ns(start.elapsed()))
    });
    let busy = obs.histogram(&format!("par/{kernel}/worker_busy_ns"));
    let mut total_ns = 0u64;
    let mut max_ns = 0u64;
    let mut out = Vec::with_capacity(timed.len());
    for (t, ns) in timed {
        busy.observe(ns);
        total_ns = total_ns.saturating_add(ns);
        max_ns = max_ns.max(ns);
        out.push(t);
    }
    if !out.is_empty() && total_ns > 0 {
        let mean = total_ns as f64 / out.len() as f64;
        let pct = (max_ns as f64 / mean * 100.0).round() as u64;
        obs.gauge(&format!("par/{kernel}/imbalance_pct"))
            .set_max(pct);
    }
    obs.counter(&format!("par/{kernel}/invocations")).incr();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_range_exactly() {
        for n in [0u64, 1, 7, 100, 101] {
            for workers in [1usize, 2, 3, 8] {
                let parts = partition_ranges(n, workers);
                let mut covered = 0u64;
                let mut expected_start = 0u64;
                for r in &parts {
                    assert_eq!(r.start, expected_start, "gap in coverage");
                    covered += r.end - r.start;
                    expected_start = r.end;
                }
                assert_eq!(covered, n, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn map_ranges_with_writes_disjoint_slices() {
        let n = 1_000u64;
        for workers in [1usize, 3, 8] {
            let ranges = partition_ranges(n, workers);
            let mut buf = vec![0u64; n as usize];
            let mut payloads = Vec::with_capacity(ranges.len());
            let mut rest = buf.as_mut_slice();
            for r in &ranges {
                let (head, tail) =
                    std::mem::take(&mut rest).split_at_mut((r.end - r.start) as usize);
                payloads.push(head);
                rest = tail;
            }
            map_ranges_with(&ranges, payloads, |_, r, slice: &mut [u64]| {
                for (k, i) in r.clone().enumerate() {
                    slice[k] = i * i % 97;
                }
            });
            let serial: Vec<u64> = (0..n).map(|i| i * i % 97).collect();
            assert_eq!(buf, serial, "workers={workers}");
        }
    }

    #[test]
    fn map_ranges_sees_stable_partition_indices() {
        let ranges = partition_ranges(100, 4);
        assert_eq!(ranges.len(), 4);
        // Two passes over the same ranges observe identical (index,
        // range) pairs.
        let a = map_ranges_obs(&ranges, Obs::noop(), "test", |i, r| (i, r));
        let b = map_ranges_obs(&ranges, Obs::noop(), "test", |i, r| (i, r));
        assert_eq!(a, b);
        for (i, (idx, r)) in a.iter().enumerate() {
            assert_eq!(i, *idx);
            assert_eq!(*r, ranges[i]);
        }
    }
}
