//! Order-preserving parallel map on `std::thread::scope`.
//!
//! The workspace previously used rayon for embarrassingly parallel sweeps
//! (one simulated-annealing solve per link limit, one experiment leg per
//! core). Offline builds cannot fetch rayon, and the call sites only ever
//! used `par_iter()/into_par_iter()` + `map` + `collect`, so this crate
//! provides exactly that shape over scoped threads: items are pulled from
//! an atomic work index by `available_parallelism()` workers and results
//! land back in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The default worker count: one per available core. The OS is asked
/// once, on the first call (on Linux that reads cgroup files), and the
/// count is remembered for the life of the process.
pub fn default_workers() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Applies `f` to every item on a pool of scoped threads, preserving input
/// order in the output. Falls back to a plain sequential map when there is
/// one item or one core.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_with(items, 0, || (), |(), item| f(item))
}

/// Like [`par_map`], but with an explicit worker count (`0` = one per
/// available core) and a per-worker state: `init` runs once on each worker
/// thread and the state is threaded through every item that worker
/// executes. This lets allocation-heavy work items reuse scratch buffers
/// across the batch. Output order — and, for items whose result does not
/// depend on the shared state, output *values* — are independent of the
/// worker count.
pub fn par_map_with<T, U, S, F, I>(items: Vec<T>, workers: usize, init: I, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    let n = items.len();
    // Clamp to the item count first, so 0 or 1 items run inline without
    // asking for the core count.
    let workers = if n <= 1 {
        1
    } else if workers == 0 {
        default_workers().min(n)
    } else {
        workers.min(n)
    };
    if workers <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let output: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = input[i]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("work index claimed twice");
                    let result = f(&mut state, item);
                    *output[i].lock().expect("output slot poisoned") = Some(result);
                }
            });
        }
    });
    output
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

/// A materialised sequence awaiting a parallel transform.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Declares the per-item transform.
    pub fn map<U, F>(self, f: F) -> ParMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A pending parallel map; executes on [`ParMap::collect`].
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, F> ParMap<T, F> {
    /// Runs the map across threads and gathers results in input order.
    pub fn collect<C, U>(self) -> C
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
        C: FromIterator<U>,
    {
        par_map(self.items, self.f).into_iter().collect()
    }

    /// Runs the map across threads and sums the results.
    pub fn sum<U>(self) -> U
    where
        T: Send,
        U: Send + std::iter::Sum<U>,
        F: Fn(T) -> U + Sync,
    {
        par_map(self.items, self.f).into_iter().sum()
    }
}

/// Import as `use noc_par::prelude::*;` — the drop-in for
/// `rayon::prelude::*` at this workspace's call sites.
pub mod prelude {
    pub use super::ParIter;

    /// By-value parallel iteration (`into_par_iter`), available on
    /// anything iterable.
    pub trait IntoParallelIterator: IntoIterator + Sized
    where
        Self::Item: Send,
    {
        /// Materialises the sequence for a parallel transform.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<I: IntoIterator + Sized> IntoParallelIterator for I
    where
        I::Item: Send,
    {
        fn into_par_iter(self) -> ParIter<Self::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    /// By-reference parallel iteration (`par_iter`) over slices (and, via
    /// deref, `Vec`).
    pub trait ParallelSlice<T: Sync> {
        /// Materialises `&T` handles for a parallel transform.
        fn par_iter(&self) -> ParIter<&T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> ParIter<&T> {
            ParIter {
                items: self.iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn preserves_order() {
        let squares: Vec<usize> = (0..100).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_vec_and_slice() {
        let v = [3usize, 1, 4, 1, 5];
        let doubled: Vec<usize> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        let ids: std::collections::HashSet<std::thread::ThreadId> = (0..64)
            .into_par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                std::thread::current().id()
            })
            .collect();
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if cores > 1 {
            assert!(ids.len() > 1, "expected multi-threaded execution");
        }
    }

    #[test]
    fn par_map_with_reuses_per_worker_state() {
        // Each worker counts the items it processed: every item sees a
        // positive per-worker counter, and results stay in input order.
        let results = super::par_map_with(
            (0..40).collect::<Vec<usize>>(),
            4,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        assert_eq!(results.len(), 40);
        for (k, &(i, count)) in results.iter().enumerate() {
            assert_eq!(i, k, "order must be preserved");
            assert!((1..=40).contains(&count));
        }
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<u64> = (0..33).collect();
        let seq = super::par_map_with(items.clone(), 1, || (), |(), x| x * x + 1);
        for workers in [2, 4, 8] {
            let par = super::par_map_with(items.clone(), workers, || (), |(), x| x * x + 1);
            assert_eq!(seq, par, "results must not depend on worker count");
        }
    }

    #[test]
    fn zero_and_one_items_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for items in [vec![], vec![5u64]] {
            let sequential: Vec<_> = items.iter().map(|x| (x * 3, caller)).collect();
            for workers in [0, 1, 4] {
                let mapped = super::par_map_with(
                    items.clone(),
                    workers,
                    || (),
                    |(), x| (x * 3, std::thread::current().id()),
                );
                assert_eq!(
                    mapped,
                    sequential,
                    "{} items, {workers} workers",
                    items.len()
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }
}
