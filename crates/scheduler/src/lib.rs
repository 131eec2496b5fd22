//! Morsel-driven scheduling (§6.1), from single-query to multi-tenant.
//!
//! Both engines parallelize the HyPer way \[22\]: the table-scan loop of
//! every pipeline is replaced by workers repeatedly *claiming* tuple
//! ranges ("morsels") from a shared dispenser, and pipeline breakers
//! synchronize phases with a barrier. This crate owns all three
//! layers of that story:
//!
//! * [`Morsels`] — the lock-free dispenser of tuple ranges.
//! * [`scope_workers`] — the *spawn-per-query* fallback: scoped OS
//!   threads for one parallel region, as the original reproduction did
//!   for every pipeline of every query run.
//! * [`Scheduler`] — a **persistent worker pool plus morsel-level
//!   inter-query scheduler**: a fixed set of workers executes morsels
//!   from all concurrently running queries, sizing each morsel to a
//!   time slice and serving the query with the least attained worker
//!   time first, with an admission gate bounding the number of in-flight
//!   queries. Worker count stays fixed regardless of client concurrency.
//! * [`ExecCtx`] — the handle execution code is written against; it
//!   routes a parallel region to the pool when one is attached and to
//!   the spawn fallback (or inline execution) otherwise.
//! * [`StageTrace`] — per-pipeline-stage wall-time counters that the
//!   adaptive engine driver attaches to instrumented runs.

pub mod exec;
pub mod morsel;
pub mod pool;
pub mod stage;

pub use exec::ExecCtx;
pub use morsel::{Morsels, MORSEL_TUPLES};
pub use pool::{QueryRun, RunStats, Scheduler, DEFAULT_PRIORITY, MAX_PRIORITY};
pub use stage::{StageKind, StageTimer, StageTrace};

/// Run `f(worker_id)` on `threads` scoped workers (spawn-per-query
/// fallback). With `threads <= 1` the closure runs inline on the caller
/// (no thread spawn), which keeps single-threaded measurements clean.
pub fn scope_workers(threads: usize, f: impl Fn(usize) + Sync) {
    if threads <= 1 {
        f(0);
        return;
    }
    std::thread::scope(|s| {
        for w in 0..threads {
            let f = &f;
            s.spawn(move || f(w));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn morsels_parallel_sum() {
        // Sum 0..N via 8 workers claiming morsels; must equal closed form.
        let n = 1_000_000usize;
        let m = Morsels::new(n);
        let total = AtomicU64::new(0);
        scope_workers(8, |_| {
            let mut local = 0u64;
            while let Some(r) = m.claim() {
                for i in r {
                    local += i as u64;
                }
            }
            total.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn single_thread_runs_inline() {
        let tid = std::thread::current().id();
        scope_workers(1, |w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), tid);
        });
    }
}
