//! The seeded schedule: which `(query, binding, engine)` requests a
//! workload issues, and in what order.
//!
//! Per query there are three *recurring* bindings — binding 0 is the
//! paper's §3.3 instance, 1 and 2 are drawn from `--seed` inside the
//! TPC-H/SSB substitution domains — and round `r` uses binding
//! `r mod 3`. A round issues every query once under each light engine,
//! and every `k`-th round also under Volcano — staggered by query, so
//! the heavy requests are spread over a cycle of `k` rounds instead of
//! arriving together, and walking the bindings cycle by cycle so all
//! four engines meet on every binding. The seed shuffles the order
//! within a round. Rounds are generated from `(seed, round)` alone, so
//! the schedule has no end, and a workload's name is not mixed in:
//! `scan_flat` and `scan_encoded` issue byte-identical schedules.

use crate::catalog::{Kind, Workload};
use dbep_core::datagen::ssb::REGIONS;
use dbep_core::datagen::tpch::{COLORS, SEGMENTS, SHIPMODES};
use dbep_core::queries::params::Params;
use dbep_core::queries::{Engine, QueryId};
use dbep_core::runtime::SmallRng;

/// The engines every round runs; Volcano is the heavy tail.
pub const LIGHT: [Engine; 3] = [Engine::Typer, Engine::Tectorwise, Engine::Adaptive];

/// Recurring bindings per query.
pub const BINDINGS: usize = 3;

/// On `Serve` workloads every fourth light request of a round carries
/// a fresh binding (`RUN_PARAMS`) instead of a prepared handle.
const FRESH_EVERY: usize = 4;

/// Which parameter binding a request runs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Binding {
    /// One of the query's [`BINDINGS`] recurring bindings.
    Recurring(usize),
    /// A one-off binding, as its wire spec.
    Fresh(String),
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    pub query: QueryId,
    pub binding: Binding,
    pub engine: Engine,
}

/// splitmix-style mix of the seed with a stream id, so every consumer
/// draws from its own generator.
fn stream(seed: u64, id: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
}

fn pick<'a>(rng: &mut SmallRng, words: &[&'a str]) -> &'a str {
    words[rng.gen_range(0..words.len())]
}

/// One draw from `query`'s substitution domain, as a wire spec.
fn draw_spec(query: QueryId, rng: &mut SmallRng) -> String {
    match query {
        QueryId::Q1 => format!("delta={}", rng.gen_range(60..=120)),
        QueryId::Q6 => format!(
            "year={};discount={};quantity={}",
            rng.gen_range(1993..=1997),
            rng.gen_range(2..=9),
            rng.gen_range(24..=25)
        ),
        QueryId::Q3 => format!(
            "segment={};cut=1995-03-{:02}",
            pick(rng, SEGMENTS),
            rng.gen_range(1..=31)
        ),
        QueryId::Q4 => format!(
            "year={};quarter={}",
            rng.gen_range(1993..=1997),
            rng.gen_range(1..=4)
        ),
        QueryId::Q9 => format!("color={}", pick(rng, COLORS)),
        QueryId::Q12 => {
            let a = rng.gen_range(0..SHIPMODES.len());
            let b = (a + rng.gen_range(1..SHIPMODES.len())) % SHIPMODES.len();
            format!(
                "mode_a={};mode_b={};year={}",
                SHIPMODES[a],
                SHIPMODES[b],
                rng.gen_range(1993..=1997)
            )
        }
        QueryId::Q14 => format!(
            "year={};month={}",
            rng.gen_range(1993..=1997),
            rng.gen_range(1..=12)
        ),
        QueryId::Q18 => format!("quantity={}", rng.gen_range(312..=315)),
        QueryId::Ssb1_1 => {
            let lo = rng.gen_range(0..=8);
            format!(
                "year={};disc_lo={lo};disc_hi={};quantity={}",
                rng.gen_range(1992..=1997),
                lo + 2,
                rng.gen_range(24..=26)
            )
        }
        QueryId::Ssb2_1 => format!(
            "category=MFGR#{}{};region={}",
            rng.gen_range(1..=5),
            rng.gen_range(1..=5),
            pick(rng, REGIONS)
        ),
        // The year range stays the paper's: its length sets the
        // selectivity, which a recurring binding should not move.
        QueryId::Ssb3_1 => format!(
            "cust_region={};supp_region={};year_lo=1992;year_hi=1997",
            pick(rng, REGIONS),
            pick(rng, REGIONS)
        ),
        QueryId::Ssb4_1 => {
            let a = rng.gen_range(1..=5);
            let b = (a - 1 + rng.gen_range(1..=4)) % 5 + 1;
            format!(
                "cust_region={};supp_region={};mfgr_a={a};mfgr_b={b}",
                pick(rng, REGIONS),
                pick(rng, REGIONS)
            )
        }
    }
}

/// The three recurring bindings of `query` under `seed`, pairwise
/// distinct.
pub fn recurring(seed: u64, query: QueryId) -> [Params; BINDINGS] {
    let mut rng = stream(seed, 1000 + query.ordinal() as u64);
    let first = Params::default_for(query);
    let mut drawn: Vec<Params> = vec![first];
    while drawn.len() < BINDINGS {
        let spec = draw_spec(query, &mut rng);
        let params = Params::from_spec(query, &spec).expect("drawn inside the domain");
        if !drawn.contains(&params) {
            drawn.push(params);
        }
    }
    drawn.try_into().expect("three bindings")
}

/// An endless supply of seeded draws from the queries' substitution
/// domains, for probing the plan cache with bindings it has not seen.
pub struct FreshSpecs {
    rng: SmallRng,
}

pub fn fresh_specs(wl: &Workload, seed: u64) -> FreshSpecs {
    FreshSpecs {
        rng: stream(seed, 2000 + wl.queries.len() as u64),
    }
}

impl FreshSpecs {
    pub fn next(&mut self, query: QueryId) -> Params {
        Params::from_spec(query, &draw_spec(query, &mut self.rng)).expect("drawn inside the domain")
    }
}

/// The requests of round `round`, in issue order.
pub fn round(wl: &Workload, seed: u64, round: usize) -> Vec<Request> {
    let mut rng = stream(seed, round as u64);
    let serve = wl.kind == Kind::Serve;
    let mut requests = Vec::new();
    for &query in wl.queries {
        for engine in LIGHT {
            // Offset by the round so the fresh slot visits every pair.
            let binding = if serve && (requests.len() + round) % FRESH_EVERY == FRESH_EVERY - 1 {
                Binding::Fresh(draw_spec(query, &mut rng))
            } else {
                Binding::Recurring(round % BINDINGS)
            };
            requests.push(Request {
                query,
                binding,
                engine,
            });
        }
    }
    let cycle = round / wl.volcano_every;
    for (i, &query) in wl.queries.iter().enumerate() {
        if (round + i + 1).is_multiple_of(wl.volcano_every) {
            requests.push(Request {
                query,
                binding: Binding::Recurring(cycle % BINDINGS),
                engine: Engine::Volcano,
            });
        }
    }
    // Fisher–Yates.
    for i in (1..requests.len()).rev() {
        requests.swap(i, rng.gen_range(0..=i));
    }
    requests
}

/// The requests of cycle `cycle`: its `volcano_every` rounds in order.
pub fn cycle(wl: &Workload, seed: u64, cycle: usize) -> Vec<Request> {
    (0..wl.volcano_every)
        .flat_map(|r| round(wl, seed, cycle * wl.volcano_every + r))
        .collect()
}

/// Stable digest of the first `cycles` cycles (and the recurring
/// bindings behind them): what `bench schedule` prints, and what the
/// tests compare across seeds.
pub fn digest(wl: &Workload, seed: u64, cycles: usize) -> u64 {
    let mut text = String::new();
    for &query in wl.queries {
        for params in recurring(seed, query) {
            text.push_str(&params.to_spec());
            text.push('\n');
        }
    }
    for c in 0..cycles {
        for request in cycle(wl, seed, c) {
            text.push_str(&format!("{request:?}\n"));
        }
    }
    dbep_core::obs::fingerprint64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn every_draw_is_inside_its_domain() {
        for query in QueryId::ALL {
            let mut rng = stream(7, query.ordinal() as u64);
            for _ in 0..200 {
                let spec = draw_spec(query, &mut rng);
                Params::from_spec(query, &spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            }
        }
    }

    #[test]
    fn recurring_bindings_are_distinct_and_start_at_the_paper_instance() {
        for query in QueryId::ALL {
            let b = recurring(3, query);
            assert_eq!(b[0], Params::default_for(query));
            assert!(b[0] != b[1] && b[1] != b[2] && b[0] != b[2], "{}", query.name());
        }
    }

    #[test]
    fn a_cycle_runs_every_pair_the_stated_number_of_times() {
        for wl in WORKLOADS {
            let requests = cycle(&wl, 11, 0);
            for &query in wl.queries {
                for engine in LIGHT {
                    let n = requests
                        .iter()
                        .filter(|r| r.query == query && r.engine == engine)
                        .count();
                    assert_eq!(n, wl.volcano_every, "{} {}", wl.name, query.name());
                }
                let volcano = requests
                    .iter()
                    .filter(|r| r.query == query && r.engine == Engine::Volcano)
                    .count();
                assert_eq!(volcano, 1);
            }
            let fresh = requests
                .iter()
                .filter(|r| matches!(r.binding, Binding::Fresh(_)))
                .count();
            let light = wl.queries.len() * LIGHT.len() * wl.volcano_every;
            assert_eq!(fresh, if wl.kind == Kind::Serve { light / 4 } else { 0 });
        }
    }

    #[test]
    fn the_seed_sets_the_schedule_and_the_scan_pair_shares_it() {
        let [flat, encoded, ..] = WORKLOADS;
        assert_eq!(digest(&flat, 5, 3), digest(&flat, 5, 3));
        assert_ne!(digest(&flat, 5, 3), digest(&flat, 6, 3));
        assert_eq!(digest(&flat, 5, 3), digest(&encoded, 5, 3));
    }
}
