//! Star Schema Benchmark plans (§4.4).
//!
//! All four flights share one shape: filters on small dimension tables
//! build hash tables, and the `lineorder` fact scan probes them in
//! sequence — "dominated by hash table probes", which is why the paper's
//! SSB results mirror TPC-H Q3/Q9.
//!
//! Dimension hierarchy values (region, nation, category, brand) are
//! dictionary-encoded integers (see `dbep-datagen::ssb`); plans resolve
//! constants like `'MFGR#12'` to codes at plan-build time and results
//! decode names back.

pub mod q1_1;
pub mod q2_1;
pub mod q3_1;
pub mod q4_1;

use crate::ExecCfg;
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Table;
use dbep_vectorized as tw;
use dbep_vectorized::SimdPolicy;

/// One dimension table of a `build-date`/`build-dims` stage, one body
/// for both paradigms: a paced scan of `dim`, charged the flat width of
/// `columns` (the ones `entry` reads), that pushes the payload of every
/// row `entry` keeps, hashed on its key with `hf`.
pub(crate) fn build_dim<T: Send + Sync>(
    cfg: &ExecCfg,
    dim: &Table,
    columns: &[&str],
    hf: HashFn,
    entry: impl Fn(usize) -> Option<(i32, T)> + Sync,
) -> JoinHt<T> {
    cfg.build_ht(
        dim.len(),
        dim.flat_bits(columns),
        || (),
        |(sh, ()), r| {
            for i in r {
                if let Some((key, row)) = entry(i) {
                    sh.push(hf.hash(key as u64), row);
                }
            }
        },
    )
}

/// Reusable scratch for a chain of Tectorwise dimension probes over one
/// fact chunk.
#[derive(Default)]
pub(crate) struct ProbeScratch {
    hashes: Vec<u64>,
    ordinals: Vec<u32>,
    pub bufs: tw::ProbeBuffers,
}

impl ProbeScratch {
    /// Probe `ht` with `fact_keys[rows[i]]`. After the call,
    /// `self.bufs.match_tuple` holds the surviving *ordinals* into
    /// `rows` and `self.bufs.match_entry` the matched entries; use
    /// [`realign_u32`]/[`realign_i32`] to shrink carried vectors.
    pub(crate) fn probe_step<T: Send + Sync>(
        &mut self,
        ht: &JoinHt<T>,
        fact_keys: &[i32],
        rows: &[u32],
        hf: HashFn,
        policy: SimdPolicy,
        eq: impl Fn(&T, i32) -> bool,
    ) -> usize {
        tw::hashp::hash_i32(fact_keys, rows, hf, &mut self.hashes);
        tw::hashp::iota(0, rows.len(), &mut self.ordinals);
        tw::probe::probe_join(
            ht,
            &self.hashes,
            &self.ordinals,
            |entry, j| eq(entry, fact_keys[rows[j as usize] as usize]),
            policy,
            &mut self.bufs,
        )
    }
}

/// `out[i] = src[ord[i]]` — shrink a carried vector after a probe.
pub(crate) fn realign_u32(src: &[u32], ord: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.extend(ord.iter().map(|&j| src[j as usize]));
}

/// As [`realign_u32`] for i32 payload vectors.
pub(crate) fn realign_i32(src: &[i32], ord: &[u32], out: &mut Vec<i32>) {
    out.clear();
    out.extend(ord.iter().map(|&j| src[j as usize]));
}
