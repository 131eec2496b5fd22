//! [`ExecCtx`] — how execution code reaches the scheduler.
//!
//! Every parallel region of the engines (fused scan loops, vectorized
//! chunk loops, hash-table publishes, partition merges, Volcano
//! pipelines) is written against this context. With a [`QueryRun`]
//! attached, regions submit to the shared pool (morsel-level
//! inter-query scheduling, fixed worker count); without one, they fall
//! back to the original spawn-per-query scoped threads — inline on the
//! caller for `threads <= 1`, which keeps single-query measurements
//! clean and preserves the paper-reproduction perf path.

use crate::morsel::Morsels;
use crate::pool::QueryRun;
use crate::scope_workers;
use std::ops::Range;
use std::sync::Mutex;

/// Execution context of one query run: requested thread count plus the
/// optional pool attachment.
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    /// Requested degree of parallelism (`ExecCfg.threads`).
    pub threads: usize,
    /// Attached scheduler run; `None` = spawn-per-query fallback.
    pub run: Option<&'a QueryRun>,
}

impl<'a> ExecCtx<'a> {
    /// Single-threaded, inline execution (no pool, no spawns).
    pub fn inline() -> Self {
        ExecCtx {
            threads: 1,
            run: None,
        }
    }

    /// Spawn-per-query fallback at `threads` workers.
    pub fn spawn(threads: usize) -> Self {
        ExecCtx { threads, run: None }
    }

    /// Pool-attached execution; `threads` still caps this query's
    /// concurrent workers on the pool.
    pub fn pooled(threads: usize, run: &'a QueryRun) -> Self {
        ExecCtx {
            threads,
            run: Some(run),
        }
    }

    /// Number of worker *slots* bodies may be invoked with: the pool's
    /// worker count when attached (any pool worker may execute a
    /// morsel), the spawned worker count otherwise.
    pub fn workers(&self) -> usize {
        match self.run {
            Some(run) => run.workers(),
            None => self.threads.max(1),
        }
    }

    /// Effective degree of parallelism of this query: the requested
    /// thread count, capped by the pool size when pooled.
    pub fn parallelism(&self) -> usize {
        match self.run {
            Some(run) => self.threads.clamp(1, run.workers()),
            None => self.threads.max(1),
        }
    }

    /// Run `body(worker_id, range)` over every morsel of `morsels` —
    /// the parallel-region primitive everything else builds on.
    /// Returns when all morsels are done (pipeline barrier).
    pub fn for_each_morsel(&self, morsels: Morsels, body: impl Fn(usize, Range<usize>) + Sync) {
        match self.run {
            Some(run) => run.run_task(morsels, self.threads, &body),
            None => scope_workers(self.threads, |w| {
                while let Some(r) = morsels.claim() {
                    body(w, r);
                }
            }),
        }
    }

    /// Morsel scan with per-worker state (build shards, pre-aggregation
    /// shards, vector scratch): `init()` lazily creates the
    /// slot state on the first morsel a worker executes, `fold` absorbs
    /// one morsel into it. Returns the states of the workers that
    /// actually participated, in slot order.
    pub fn map_slots<T: Send>(
        &self,
        morsels: Morsels,
        init: impl Fn() -> T + Sync,
        fold: impl Fn(&mut T, Range<usize>) + Sync,
    ) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..self.workers()).map(|_| Mutex::new(None)).collect();
        self.for_each_morsel(morsels, |w, r| {
            // Uncontended: slot `w` is only ever touched by worker `w`
            // (one thread), morsel-at-a-time; the lock is for safety,
            // not synchronization.
            let mut slot = slots[w].lock().expect("worker slot");
            fold(slot.get_or_insert_with(&init), r);
        });
        slots
            .into_iter()
            .filter_map(|s| s.into_inner().expect("worker slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Scheduler, DEFAULT_PRIORITY};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn coverage(exec: &ExecCtx, total: usize) {
        let seen: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        exec.for_each_morsel(Morsels::with_size(total, 100), |_, r| {
            for i in r {
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn morsel_coverage_identical_across_modes() {
        coverage(&ExecCtx::inline(), 5000);
        coverage(&ExecCtx::spawn(4), 5000);
        let pool = Scheduler::new(4);
        let run = pool.begin_query(DEFAULT_PRIORITY);
        coverage(&ExecCtx::pooled(4, &run), 5000);
        coverage(&ExecCtx::pooled(16, &run), 5000);
    }

    #[test]
    fn map_slots_folds_to_the_same_total_in_all_modes() {
        let check = |exec: ExecCtx| {
            let locals = exec.map_slots(
                Morsels::with_size(10_000, 128),
                || 0u64,
                |acc, r| *acc += r.map(|i| i as u64).sum::<u64>(),
            );
            assert!(locals.len() <= exec.workers());
            assert_eq!(locals.iter().sum::<u64>(), 9_999 * 10_000 / 2);
        };
        check(ExecCtx::inline());
        check(ExecCtx::spawn(3));
        let pool = Scheduler::new(2);
        let run = pool.begin_query(DEFAULT_PRIORITY);
        check(ExecCtx::pooled(2, &run));
    }

    #[test]
    fn map_slots_empty_scan_yields_no_states() {
        let states = ExecCtx::spawn(4).map_slots(Morsels::new(0), || 1u32, |_, _| {});
        assert!(states.is_empty());
    }

    #[test]
    fn parallelism_is_capped_by_pool_size() {
        let pool = Scheduler::new(2);
        let run = pool.begin_query(DEFAULT_PRIORITY);
        assert_eq!(ExecCtx::pooled(8, &run).parallelism(), 2);
        assert_eq!(ExecCtx::pooled(1, &run).parallelism(), 1);
        assert_eq!(ExecCtx::pooled(8, &run).workers(), 2);
        assert_eq!(ExecCtx::spawn(8).parallelism(), 8);
        assert_eq!(ExecCtx::spawn(0).parallelism(), 1);
    }
}
