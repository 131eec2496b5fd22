//! Database generation for a workload, timed part by part. The data
//! seed is [`DATA_SEED`] always; the workload `--seed` never reaches
//! the generators.

use crate::catalog::{Workload, BUILD_REPS, DATA_SEED};
use crate::report::Metrics;
use crate::stats::{quantile, ratio};
use dbep_core::datagen;
use dbep_core::queries::{Engine, QueryId};
use dbep_core::storage::Database;
use dbep_core::{PreparedQuery, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What generating the data took and produced (the `datagen.*` and
/// static `storage.*` per-layer numbers).
#[derive(Clone, Copy, Debug, Default)]
pub struct DataFacts {
    pub tpch_s: f64,
    pub ssb_s: f64,
    pub encode_s: f64,
    pub rows: usize,
    pub flat_bytes: usize,
    pub encoded_bytes: usize,
}

impl DataFacts {
    /// The `datagen.*` and static `storage.*` per-layer metrics.
    pub fn metrics(&self) -> Metrics {
        vec![
            ("datagen.tpch_s", self.tpch_s),
            ("datagen.ssb_s", self.ssb_s),
            (
                "datagen.rows_per_s",
                ratio(self.rows as f64, self.tpch_s + self.ssb_s),
            ),
            ("storage.encode_s", self.encode_s),
            ("storage.flat_bytes", self.flat_bytes as f64),
            ("storage.encoded_bytes", self.encoded_bytes as f64),
            (
                "storage.bytes_ratio",
                ratio(self.encoded_bytes as f64, self.flat_bytes as f64),
            ),
        ]
    }
}

pub struct Databases {
    pub tpch: Option<Arc<Database>>,
    pub ssb: Option<Arc<Database>>,
    pub facts: DataFacts,
}

/// Generate one database (and encode it for an encoded workload),
/// adding its sizes to `facts`; returns it with its generation time.
fn one(wl: &Workload, generator: fn(f64, u64) -> Database, facts: &mut DataFacts) -> (Arc<Database>, f64) {
    let t = Instant::now();
    let mut db = generator(wl.sf, DATA_SEED);
    let generated_s = t.elapsed().as_secs_f64();
    if wl.encoded() {
        let t = Instant::now();
        db.encode_all();
        facts.encode_s += t.elapsed().as_secs_f64();
    }
    facts.rows += db.tables().map(|t| t.len()).sum::<usize>();
    facts.flat_bytes += db.byte_size();
    facts.encoded_bytes += db.encoded_byte_size();
    (Arc::new(db), generated_s)
}

/// Generate the databases the workload's queries read.
pub fn generate(wl: &Workload) -> Databases {
    let mut facts = DataFacts::default();
    let tpch = wl
        .needs_tpch()
        .then(|| one(wl, datagen::tpch::generate, &mut facts));
    let ssb = wl
        .needs_ssb()
        .then(|| one(wl, datagen::ssb::generate, &mut facts));
    facts.tpch_s = tpch.as_ref().map_or(0.0, |(_, s)| *s);
    facts.ssb_s = ssb.as_ref().map_or(0.0, |(_, s)| *s);
    Databases {
        tpch: tpch.map(|(db, _)| db),
        ssb: ssb.map(|(db, _)| db),
        facts,
    }
}

/// One session per generated database; a query runs on the one that
/// holds its tables.
pub struct Sessions {
    pub tpch: Option<Session>,
    pub ssb: Option<Session>,
}

impl Sessions {
    pub fn open(dbs: &Databases, open: impl Fn(Arc<Database>) -> Session) -> Sessions {
        Sessions {
            tpch: dbs.tpch.clone().map(&open),
            ssb: dbs.ssb.clone().map(&open),
        }
    }

    /// The same sessions, each passed through `f`.
    pub fn map(&self, f: impl Fn(&Session) -> Session) -> Sessions {
        Sessions {
            tpch: self.tpch.as_ref().map(&f),
            ssb: self.ssb.as_ref().map(&f),
        }
    }

    pub fn of(&self, query: QueryId) -> &Session {
        let s = if QueryId::SSB.contains(&query) {
            &self.ssb
        } else {
            &self.tpch
        };
        s.as_ref().expect("the workload's databases were generated")
    }

    pub fn iter(&self) -> impl Iterator<Item = &Session> {
        [&self.tpch, &self.ssb].into_iter().flatten()
    }
}

/// True once Adaptive has committed a choice for this plan that uses
/// both engines.
pub fn mixes_engines(prepared: &PreparedQuery) -> bool {
    prepared
        .adaptive_choices()
        .is_some_and(|(c, _)| c.contains(&Engine::Typer) && c.contains(&Engine::Tectorwise))
}

/// Run the build part of set-up [`BUILD_REPS`] times, dropping each
/// result before the next is built (peak memory stays one copy), and
/// return the last with the median build time.
pub fn build_repeatedly<T>(mut build: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..BUILD_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed());
    }
    (built.expect("at least one build"), quantile(&times, 0.5))
}
