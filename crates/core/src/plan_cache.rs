//! Per-session plan cache and the adaptive engine-selection state.
//!
//! Production serving traffic re-prepares the same parameterized
//! templates constantly, so a [`crate::Session`] memoizes preparation:
//! the cache maps bound [`Params`] (exact match — safe because the
//! database is immutable after load, so a plan learned for one binding
//! never goes stale) to a [`CachedPlan`] holding the resolved physical
//! plan and everything `Engine::Adaptive` has learned about it.
//!
//! Adaptive selection is *measure-then-commit*, per stage:
//!
//! 1. the first execution runs the uniform **Typer** assignment with a
//!    [`StageTrace`](dbep_scheduler::StageTrace) attached and records
//!    per-stage wall time;
//! 2. the next execution does the same for uniform **Tectorwise**;
//! 3. every later execution runs the per-stage minimum through
//!    [`dbep_queries::QueryPlan::run_stages`] — for every plan; there is
//!    no whole-plan fallback.
//!
//! Both exploration runs return correct results (they *are* the pure
//! engines), so learning costs no extra query executions. Volcano is
//! never a candidate: it exists as the paper's interpreted baseline,
//! not as a paradigm that wins any stage. While an exploration run is
//! in flight on another thread, concurrent executions run the static
//! paper heuristic (probe stages → Tectorwise, the rest → Typer) rather
//! than duplicating the measurement.
//!
//! Invalidation: there is none, by design. Data is immutable once
//! loaded and plans are compiled into the binary, so a cache entry can
//! only be abandoned by dropping the session (or its clones) that owns
//! it.

use dbep_queries::params::Params;
use dbep_queries::{Engine, QueryPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters for cache effectiveness reporting (`serve` benchmark).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Prepares answered from the cache.
    pub hits: u64,
    /// Prepares that had to resolve and insert a fresh entry.
    pub misses: u64,
    /// Distinct `(query, params)` bindings currently cached.
    pub entries: usize,
}

/// The session-owned prepare memo: bound params → resolved plan +
/// adaptive state. Shared by all clones of a session (and all prepared
/// queries handed out), so exploration done through one handle
/// benefits every other.
pub struct PlanCache {
    entries: Mutex<HashMap<Params, Arc<CachedPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    pub fn new() -> Self {
        PlanCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fetch or create the entry for `params`; the bool is true on a
    /// hit. One lock covers lookup and insert, so racing prepares of
    /// the same binding converge on a single entry (one miss, the rest
    /// hits).
    pub fn lookup(&self, params: &Params) -> (Arc<CachedPlan>, bool) {
        let mut map = self.entries.lock().unwrap();
        if let Some(entry) = map.get(params) {
            // ORDERING: Relaxed — monotonic stats counter; no data is
            // published through it.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(entry), true);
        }
        // ORDERING: Relaxed — monotonic stats counter, as above.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = dbep_queries::plan(params.query());
        let entry = Arc::new(CachedPlan {
            plan,
            adaptive: AdaptiveState::new(),
        });
        map.insert(params.clone(), Arc::clone(&entry));
        (entry, false)
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            // ORDERING: Relaxed — stats snapshot; counters are
            // independent and approximate by design.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.lock().unwrap().len(),
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

/// One cached preparation: the resolved plan and what `Adaptive` has
/// learned about this binding so far.
pub struct CachedPlan {
    pub(crate) plan: &'static dyn QueryPlan,
    pub(crate) adaptive: AdaptiveState,
}

impl CachedPlan {
    /// The resolved physical plan.
    pub fn plan(&self) -> &'static dyn QueryPlan {
        self.plan
    }

    /// The adaptive selection state for this binding.
    pub fn adaptive(&self) -> &AdaptiveState {
        &self.adaptive
    }
}

/// What the adaptive driver should do for one execution.
#[derive(Clone, Debug)]
pub enum Decision {
    /// Run this pure candidate with a stage trace attached and
    /// [`AdaptiveState::record`] the snapshot.
    Explore(Engine),
    /// Both candidates are measured: run the learned per-stage
    /// assignment.
    Use { choices: Arc<Vec<Engine>> },
    /// An exploration run is in flight elsewhere; execute via the
    /// static paper heuristic without recording anything.
    Heuristic,
}

/// One candidate's exploration run: not started, running somewhere,
/// or its per-stage wall times.
enum Slot {
    Empty,
    InFlight,
    Done(Vec<u64>),
}

struct Inner {
    typer: Slot,
    tw: Slot,
    learned: Option<Arc<Vec<Engine>>>,
}

/// Explore-then-commit engine selection for one cached plan. All
/// methods are cheap (one short mutex section); the measured runs
/// themselves happen outside the lock.
pub struct AdaptiveState {
    inner: Mutex<Inner>,
}

impl AdaptiveState {
    fn new() -> Self {
        AdaptiveState {
            inner: Mutex::new(Inner {
                typer: Slot::Empty,
                tw: Slot::Empty,
                learned: None,
            }),
        }
    }

    /// Pick the action for the next execution (see [`Decision`]).
    pub fn decide(&self) -> Decision {
        let mut inner = self.inner.lock().unwrap();
        if let Some(choices) = &inner.learned {
            return Decision::Use {
                choices: Arc::clone(choices),
            };
        }
        if matches!(inner.typer, Slot::Empty) {
            inner.typer = Slot::InFlight;
            return Decision::Explore(Engine::Typer);
        }
        if matches!(inner.tw, Slot::Empty) {
            inner.tw = Slot::InFlight;
            return Decision::Explore(Engine::Tectorwise);
        }
        Decision::Heuristic
    }

    /// Commit an exploration measurement (per-stage nanoseconds from a
    /// [`StageTrace`](dbep_scheduler::StageTrace) snapshot). Once both
    /// candidates are in, the per-stage minima (ties to Typer) become
    /// the learned assignment every later [`AdaptiveState::decide`]
    /// returns.
    pub fn record(&self, candidate: Engine, stage_ns: Vec<u64>) {
        let mut inner = self.inner.lock().unwrap();
        match candidate {
            Engine::Typer => inner.typer = Slot::Done(stage_ns),
            Engine::Tectorwise => inner.tw = Slot::Done(stage_ns),
            other => unreachable!("{} is not an adaptive candidate", other.name()),
        }
        if inner.learned.is_none() {
            if let (Slot::Done(typer), Slot::Done(tw)) = (&inner.typer, &inner.tw) {
                let choices = typer
                    .iter()
                    .zip(tw)
                    .map(|(&t, &v)| if v < t { Engine::Tectorwise } else { Engine::Typer })
                    .collect();
                inner.learned = Some(Arc::new(choices));
            }
        }
    }

    /// The learned per-stage assignment once both exploration runs have
    /// committed; `None` while still exploring. The second element is
    /// the uniform assignment with the lower measured total (ties to
    /// Typer) — a report value computed here from the two recorded stage
    /// vectors, stored nowhere and consulted by no dispatch path. It is
    /// part of the return type because the frozen benchmark of record
    /// (`benchmark/src/data.rs`) destructures this pair.
    pub fn learned(&self) -> Option<(Vec<Engine>, Engine)> {
        let inner = self.inner.lock().unwrap();
        let choices = inner.learned.as_deref()?.clone();
        let (Slot::Done(typer), Slot::Done(tw)) = (&inner.typer, &inner.tw) else {
            unreachable!("an assignment is learned from two committed runs")
        };
        let faster = if tw.iter().sum::<u64>() < typer.iter().sum::<u64>() {
            Engine::Tectorwise
        } else {
            Engine::Typer
        };
        Some((choices, faster))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbep_queries::QueryId;

    #[test]
    fn lookup_is_hit_after_miss() {
        let cache = PlanCache::new();
        let p = Params::default_for(QueryId::Q6);
        let (first, hit) = cache.lookup(&p);
        assert!(!hit);
        let (second, hit) = cache.lookup(&p);
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second), "one entry per binding");
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn different_bindings_are_different_entries() {
        let cache = PlanCache::new();
        let (a, _) = cache.lookup(&Params::default_for(QueryId::Q6));
        let (b, _) = cache.lookup(&Params::default_for(QueryId::Q1));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn explore_then_commit_learns_stage_minima() {
        let state = AdaptiveState::new();
        // First two decisions explore Typer then Tectorwise.
        assert!(matches!(state.decide(), Decision::Explore(Engine::Typer)));
        assert!(matches!(state.decide(), Decision::Explore(Engine::Tectorwise)));
        // While both are in flight, others use the heuristic.
        assert!(matches!(state.decide(), Decision::Heuristic));
        state.record(Engine::Typer, vec![100, 900]);
        assert!(matches!(state.decide(), Decision::Heuristic));
        state.record(Engine::Tectorwise, vec![300, 400]);
        let (choices, faster) = state.learned().expect("both candidates measured");
        assert_eq!(choices, vec![Engine::Typer, Engine::Tectorwise]);
        assert_eq!(faster, Engine::Tectorwise, "700 < 1000 total");
        match state.decide() {
            Decision::Use { choices } => assert_eq!(*choices, vec![Engine::Typer, Engine::Tectorwise]),
            other => panic!("expected learned decision, got {other:?}"),
        }
    }

    #[test]
    fn ties_go_to_typer() {
        let state = AdaptiveState::new();
        state.decide();
        state.decide();
        state.record(Engine::Typer, vec![500]);
        state.record(Engine::Tectorwise, vec![500]);
        let (choices, faster) = state.learned().unwrap();
        assert_eq!(choices, vec![Engine::Typer]);
        assert_eq!(faster, Engine::Typer);
    }
}
