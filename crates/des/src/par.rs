//! The one worker pool: every batch that runs on several threads — the
//! simulations of a sweep, the shards of a result-cache plan, the chunks
//! of a topology-table build — goes through [`for_each_claimed`].
//!
//! Workers claim items from one shared counter, so a slow item never
//! leaves a worker idle while work remains. Worker 0 is the caller's
//! thread, so a pool of `w` workers spawns `w - 1` scoped threads, and a
//! pool of one spawns nothing. Which worker runs which item depends on
//! thread timing; [`map_ordered`] hides that by returning results in
//! input order, so a parallel batch is indistinguishable from a serial
//! one.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: the machine's available parallelism, or 1
/// when it cannot be read.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The item indices one worker claims, in claim order. Every index below
/// the batch length is claimed by exactly one worker.
#[derive(Debug)]
pub struct Claims<'a> {
    next: &'a AtomicUsize,
    len: usize,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // Relaxed: the counter publishes no data. The items are shared
        // before any worker starts, and results come back through `join`.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

/// Runs a batch of `len` items on `workers` workers, capped at `len` and
/// at least one, and returns each worker's result in worker order.
///
/// `work(worker, claims)` runs once per worker: `worker` is its index and
/// `claims` yields the items it takes, each claimed from the shared
/// counter when the worker asks for it. Worker 0 runs on the caller's
/// thread; the others are scoped threads, joined before this returns.
///
/// # Panics
///
/// A panic in any worker is re-raised on the caller's thread once every
/// other worker has finished.
pub fn for_each_claimed<W, F>(len: usize, workers: usize, work: F) -> Vec<W>
where
    W: Send,
    F: Fn(usize, Claims<'_>) -> W + Sync,
{
    let workers = workers.min(len).max(1);
    let next = AtomicUsize::new(0);
    let claims = || Claims { next: &next, len };
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker, claims())))
            .collect();
        let mut results = Vec::with_capacity(workers);
        results.push(work(0, claims()));
        for handle in spawned {
            match handle.join() {
                Ok(result) => results.push(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    })
}

/// Maps `f` over `items` on at most `workers` workers and returns the
/// results in input order, whatever order they finish in. With one
/// worker, or at most one item, [`for_each_claimed`] runs the whole
/// batch on the caller's thread and spawns nothing.
///
/// # Panics
///
/// Re-raises a panic of `f`, as [`for_each_claimed`] does.
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut done: Vec<(usize, R)> = for_each_claimed(items.len(), workers, |_, claims| {
        claims.map(|i| (i, f(&items[i]))).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let runs = for_each_claimed(5, 1, |worker, claims| {
            (
                worker,
                std::thread::current().id(),
                claims.collect::<Vec<_>>(),
            )
        });
        assert_eq!(runs, vec![(0, caller, vec![0, 1, 2, 3, 4])]);
        let mapped = map_ordered(&[1, 2, 3], 1, |_| std::thread::current().id());
        assert_eq!(mapped, vec![caller; 3]);
    }

    #[test]
    fn every_item_is_claimed_by_exactly_one_worker() {
        for workers in [1, 3, 8] {
            let runs = for_each_claimed(100, workers, |worker, claims| {
                (worker, claims.collect::<Vec<_>>())
            });
            let indices: Vec<usize> = runs.iter().map(|(worker, _)| *worker).collect();
            assert_eq!(indices, (0..workers).collect::<Vec<_>>());
            let mut claimed: Vec<usize> = runs.into_iter().flat_map(|(_, c)| c).collect();
            claimed.sort_unstable();
            assert_eq!(claimed, (0..100).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn the_worker_count_is_capped_by_the_items_and_at_least_one() {
        let count = |len, workers| for_each_claimed(len, workers, |_, _| ()).len();
        assert_eq!(count(2, 8), 2);
        assert_eq!(count(5, 0), 1);
        let empty = for_each_claimed(0, 4, |worker, claims| (worker, claims.count()));
        assert_eq!(empty, vec![(0, 0)]);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn a_workers_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            for_each_claimed(4, 2, |worker, claims| {
                claims.for_each(drop);
                assert!(worker != 1, "worker 1 failed");
            })
        });
        let panic = caught.expect_err("the panic propagates");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"worker 1 failed"));
    }

    #[test]
    fn map_keeps_input_order_with_more_items_than_workers() {
        let items: Vec<u64> = (1..=9).collect();
        for workers in [1, 3] {
            let out = map_ordered(&items, workers, |&x| x * 10);
            assert_eq!(out, (1..=9).map(|x| x * 10).collect::<Vec<_>>());
            assert!(map_ordered(&[] as &[u8], workers, |&x| x).is_empty());
        }
    }

    /// The first item finishes last: it waits until every other item is
    /// done. The results must still come back in input order.
    #[test]
    fn map_keeps_input_order_when_the_first_item_finishes_last() {
        let items: Vec<usize> = (0..6).collect();
        for workers in [1, 3] {
            let finished = AtomicUsize::new(0);
            let completion = Mutex::new(Vec::new());
            let out = map_ordered(&items, workers, |&i| {
                while i == 0 && workers > 1 && finished.load(Ordering::Acquire) < items.len() - 1 {
                    std::thread::yield_now();
                }
                completion.lock().expect("lock").push(i);
                finished.fetch_add(1, Ordering::Release);
                i * i
            });
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25], "{workers} workers");
            let completion = completion.into_inner().expect("lock");
            if workers > 1 {
                assert_eq!(completion.last(), Some(&0), "item 0 finished last");
            }
        }
    }

    #[test]
    fn parallel_map_matches_serial() {
        let items: Vec<u64> = (0..200).collect();
        let f = |&x: &u64| (0..x).fold(x, |h, k| h.wrapping_mul(31).wrapping_add(k));
        assert_eq!(map_ordered(&items, 3, f), map_ordered(&items, 1, f));
    }
}
