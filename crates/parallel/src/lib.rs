#![warn(missing_docs)]

//! Deterministic scoped-thread fan-out for the characterisation pipeline.
//!
//! Every parallel stage in the workspace — the oracle's per-benchmark
//! sweeps, ensemble training, the testbed's four system runs — funnels
//! through [`map_indexed`]: tasks are claimed from an atomic counter,
//! results are stitched back **by index**, so output is byte-identical at
//! any worker count. One environment knob governs them all:
//!
//! * `HETERO_THREADS=1` — the exact legacy serial path (no threads are
//!   spawned, closures run inline on the caller);
//! * `HETERO_THREADS=n` — up to `n` workers;
//! * unset — the host's available parallelism.
//!
//! The crate is deliberately std-only (no rayon): the build environment is
//! offline, and `std::thread::scope` is all the machinery index-merged
//! fan-out needs.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count the pipeline should use: `HETERO_THREADS` if set (values
/// below 1 clamp to 1), otherwise the host's available parallelism.
///
/// ```
/// let workers = hetero_parallel::worker_count();
/// assert!(workers >= 1);
/// ```
pub fn worker_count() -> usize {
    match std::env::var("HETERO_THREADS") {
        Ok(value) => value.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Compute `f(0), f(1), …, f(n-1)` on up to `workers` scoped threads and
/// return the results **in index order**.
///
/// Work is claimed dynamically (an atomic counter), so uneven task costs
/// balance automatically, but the output vector is assembled by index —
/// the result is identical to the serial `(0..n).map(f).collect()` at any
/// worker count. With `workers <= 1` (or `n <= 1`) no thread is spawned and
/// the closures run inline, preserving the exact legacy execution path.
///
/// ```
/// let squares = hetero_parallel::map_indexed(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        produced.push((index, f(index)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (index, value) in handle.join().expect("worker panicked") {
                slots[index] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = map_indexed(17, workers, |i| i * 3);
            assert_eq!(
                out,
                (0..17).map(|i| i * 3).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_on_uneven_work() {
        let serial = map_indexed(40, 1, |i| {
            // Uneven per-task cost: make late tasks cheap, early ones dear.
            (0..(40 - i) * 500).fold(i as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        });
        let parallel = map_indexed(40, 4, |i| {
            (0..(40 - i) * 500).fold(i as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<u32> = map_indexed(0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_at_least_one() {
        assert!(worker_count() >= 1);
    }
}
