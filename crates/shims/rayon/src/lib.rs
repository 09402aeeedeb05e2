//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon)
//! crate — now backed by a **real thread pool**.
//!
//! The build environment has no network access, so this workspace vendors
//! the API subset it uses: `par_iter` / `par_iter_mut` / `into_par_iter`
//! over slices, vectors and integer ranges (with `map`, `zip`,
//! `enumerate`, `flat_map_iter`, `with_min_len` adaptors and `for_each`,
//! `collect`, `reduce`, `sum`, `max`, `min`, `count` consumers), a
//! genuinely forking [`join`], and [`ThreadPoolBuilder`] /
//! [`ThreadPool::install`]. Call sites compile unchanged against registry
//! rayon — swap the `[workspace.dependencies]` path entry back to the
//! registry crate and everything keeps working (minus the guarantee
//! below, which registry rayon does not make).
//!
//! # Thread pool
//!
//! A lazily-initialized global worker pool executes all parallel
//! operations. Its size comes from the **`MTE_THREADS`** environment
//! variable (default: the machine's available parallelism); the
//! submitting thread participates, so `MTE_THREADS=1` runs everything
//! inline with zero synchronization and `MTE_THREADS=N` enlists `N − 1`
//! workers. Dedicated pools built via [`ThreadPoolBuilder`] and entered
//! with [`ThreadPool::install`] override the global pool for the scope of
//! the closure — that is how the determinism suite compares thread
//! counts within one process.
//!
//! # Deterministic reduction tree
//!
//! Unlike registry rayon, every operation here is **bit-identical across
//! thread counts**: inputs split into chunks whose layout is a pure
//! function of the input length, chunks fold sequentially, and chunk
//! results combine in chunk order — a fixed-shape reduction tree. Which
//! thread executes which chunk is dynamic (work is claimed from an atomic
//! counter, so skewed chunks load-balance), but thread assignment never
//! influences any result, only wall time. See [`iter`] for details.

pub mod iter;
mod pool;

/// Pool internals re-exported for the loom model-checking suite
/// (`tests/loom_pool.rs`), which exhaustively explores the chunk-claim,
/// completion, and shutdown protocols. Only exists under `--cfg loom`;
/// the normal public API is unaffected.
#[cfg(loom)]
pub mod loom_internals {
    pub use crate::pool::{build, execute, PoolInner};
}

/// The drop-in prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
}

use std::cell::UnsafeCell;
use std::sync::Arc;

/// One-shot closure + result cells for [`join`], shared across threads.
///
/// Soundness: the pool's claim counter assigns each of the two task
/// indices to exactly one thread, and the submitter reads results only
/// after both tasks completed.
struct JoinCell<F, R>(UnsafeCell<Option<F>>, UnsafeCell<Option<R>>);

// SAFETY: the cells are accessed cross-thread only through `run`, which
// the pool's claim counter invokes at most once per cell (see the struct
// docs); `F: Send`/`R: Send` make moving the closure/result between the
// claiming thread and the submitter sound.
unsafe impl<F: Send, R: Send> Sync for JoinCell<F, R> {}

impl<F: FnOnce() -> R, R> JoinCell<F, R> {
    fn new(f: F) -> Self {
        JoinCell(UnsafeCell::new(Some(f)), UnsafeCell::new(None))
    }

    /// Caller contract: called at most once, by the claiming thread.
    fn run(&self) {
        // SAFETY: only the claiming thread reaches this cell (pool claim
        // counter), so the exclusive access cannot race.
        let f = unsafe { (*self.0.get()).take() }.expect("join task claimed twice");
        let r = f();
        // SAFETY: as above; the submitter reads the result cell only
        // after the job completed (pool completion barrier).
        unsafe { *self.1.get() = Some(r) };
    }

    fn into_result(self) -> R {
        self.1.into_inner().expect("join task did not run")
    }
}

/// Runs two closures, potentially in parallel on the current pool, and
/// returns both results — mirroring `rayon::join`. With a single-thread
/// pool the closures simply run in order on the caller.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let a = JoinCell::new(oper_a);
    let b = JoinCell::new(oper_b);
    pool::execute(&pool::current(), 2, &|i| {
        if i == 0 {
            a.run();
        } else {
            b.run();
        }
    });
    (a.into_result(), b.into_result())
}

/// The pool size parallel operations on the current thread will use —
/// mirroring `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    pool::current().threads()
}

/// Error returned by [`ThreadPoolBuilder::build`]. The shim's builder
/// cannot actually fail; the type exists for API compatibility with
/// registry rayon.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a dedicated [`ThreadPool`], mirroring
/// `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default configuration (`MTE_THREADS` /
    /// available-parallelism sizing).
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool's total parallelism; `0` (the default) means
    /// "size from the environment".
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool, spawning its worker threads.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            pool::threads_from_env()
        } else {
            self.num_threads
        };
        let (inner, workers) = pool::build(threads);
        Ok(ThreadPool { inner, workers })
    }
}

/// A dedicated worker pool, mirroring `rayon::ThreadPool`. Parallel
/// operations run on this pool for the duration of an
/// [`install`](ThreadPool::install) scope. Dropping the pool shuts its
/// workers down.
pub struct ThreadPool {
    inner: Arc<pool::PoolInner>,
    #[cfg(not(loom))]
    workers: Vec<std::thread::JoinHandle<()>>,
    // Under the model-checking build the pool spawns loom-managed
    // threads; their handles expose the same `join` surface.
    #[cfg(loom)]
    workers: Vec<loom::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` with this pool installed as the current thread's pool:
    /// every parallel operation inside (including nested ones) uses this
    /// pool's parallelism. Returns `op`'s result.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        pool::with_installed(&self.inner, op)
    }

    /// This pool's total parallelism.
    pub fn current_num_threads(&self) -> usize {
        self.inner.threads()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::ThreadPoolBuilder;

    #[test]
    fn range_into_par_iter_collects() {
        let squares: Vec<u32> = (0u32..5).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
        // Long enough to actually span several chunks.
        let n = 10_000u32;
        let v: Vec<u32> = (0..n).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(v.len(), n as usize);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
    }

    #[test]
    fn slice_par_iter_and_mut() {
        let mut v: Vec<i64> = (0..5000).collect();
        let sum: i64 = v.par_iter().sum();
        assert_eq!(sum, 5000 * 4999 / 2);
        v.par_iter_mut().for_each(|x| *x += 10);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as i64 + 10));
    }

    #[test]
    fn par_iter_mut_enumerate_zip() {
        let mut out = vec![0usize; 4];
        let src = [10usize, 20, 30, 40];
        out.par_iter_mut()
            .zip(src.par_iter())
            .enumerate()
            .for_each(|(i, (o, s))| *o = i + s);
        assert_eq!(out, vec![10, 21, 32, 43]);
    }

    #[test]
    fn enumerate_offsets_are_global() {
        let n = 4096usize;
        let hits: Vec<usize> = (0..n)
            .into_par_iter()
            .enumerate()
            .map(|(i, x)| {
                assert_eq!(i, x);
                i
            })
            .collect();
        assert_eq!(hits, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_iter_preserves_order() {
        let flat: Vec<usize> = (0usize..300)
            .into_par_iter()
            .flat_map_iter(|i| (0..i % 3).map(move |j| i * 10 + j))
            .collect();
        let expected: Vec<usize> = (0usize..300)
            .flat_map(|i| (0..i % 3).map(move |j| i * 10 + j))
            .collect();
        assert_eq!(flat, expected);
    }

    #[test]
    fn reduce_matches_sequential_fold() {
        let n = 5000u64;
        let total = (0..n)
            .into_par_iter()
            .map(|x| x * 2)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, n * (n - 1));
        // Empty input hits the identity.
        let empty = (0u64..0).into_par_iter().reduce(|| 42, |a, b| a + b);
        assert_eq!(empty, 42);
    }

    #[test]
    fn max_min_count() {
        assert_eq!((0u32..1000).into_par_iter().max(), Some(999));
        assert_eq!((0u32..1000).into_par_iter().min(), Some(0));
        assert_eq!((0u32..0).into_par_iter().max(), None);
        assert_eq!((0u32..1000).into_par_iter().count(), 1000);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        // Non-associative f64 sums exercise the fixed-shape reduction
        // tree: bit-identical results even where associativity fails.
        let data: Vec<f64> = (0..100_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let run = || {
            data.par_iter()
                .map(|&x| x * 1.000001)
                .reduce(|| 0.0, |a, b| a + b)
        };
        let pools: Vec<_> = [1usize, 2, 3, 8]
            .iter()
            .map(|&t| ThreadPoolBuilder::new().num_threads(t).build().unwrap())
            .collect();
        let results: Vec<f64> = pools.iter().map(|p| p.install(run)).collect();
        for r in &results[1..] {
            assert_eq!(r.to_bits(), results[0].to_bits());
        }
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        outer.install(|| {
            assert_eq!(super::current_num_threads(), 3);
            inner.install(|| assert_eq!(super::current_num_threads(), 2));
            assert_eq!(super::current_num_threads(), 3);
        });
    }

    #[test]
    fn nested_parallelism_completes() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let total: u64 = pool.install(|| {
            (0u64..512)
                .into_par_iter()
                .with_min_len(1)
                .map(|i| (0u64..200).into_par_iter().map(|j| i + j).sum::<u64>())
                .sum()
        });
        let expected: u64 = (0u64..512)
            .map(|i| (0u64..200).map(|j| i + j).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0u32..10_000).into_par_iter().for_each(|i| {
                    if i == 7777 {
                        panic!("boom");
                    }
                });
            })
        }));
        assert!(caught.is_err());
        // The pool stays usable afterwards.
        let sum: u32 = pool.install(|| (0u32..100).into_par_iter().sum());
        assert_eq!(sum, 4950);
    }
}
