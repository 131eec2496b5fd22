//! The correctness gate: every result the benchmark times is compared
//! with the reference for its `(query, binding)` — the first result any
//! engine produced for it, so all four engines must agree with each
//! other — and in `--quick` mode binding 0 must also match the
//! fingerprints `tests/params_pin.rs` pins at SF 0.01, seed 42.

use crate::schedule::Binding;
use dbep_core::queries::result::QueryResult;
use dbep_core::queries::QueryId;
use std::collections::HashMap;

/// What is kept of a result: the digest the wire ships, and the row
/// count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub checksum: u64,
    pub rows: u64,
}

impl Digest {
    pub fn of(result: &QueryResult) -> Digest {
        Digest {
            checksum: result.checksum64(),
            rows: result.len() as u64,
        }
    }
}

/// First-seen digests per `(query, binding)`.
#[derive(Clone, Default)]
pub struct References {
    seen: HashMap<(QueryId, Binding), Digest>,
}

impl References {
    /// True if `digest` agrees with the reference for this binding,
    /// which it becomes if there was none.
    pub fn agrees(&mut self, query: QueryId, binding: &Binding, digest: Digest) -> bool {
        *self.seen.entry((query, binding.clone())).or_insert(digest) == digest
    }

    pub fn get(&self, query: QueryId, binding: &Binding) -> Option<Digest> {
        self.seen.get(&(query, binding.clone())).copied()
    }
}

/// `(query, fingerprint of the default-parameter result at SF 0.01,
/// seed 42)`, as pinned by `tests/params_pin.rs`.
const PINNED: [(QueryId, u64); 12] = [
    (QueryId::Q1, 0xf32e1e766bfd3de7),
    (QueryId::Q6, 0xf4c67754eb2e494d),
    (QueryId::Q3, 0x708e092adda3185f),
    (QueryId::Q9, 0x2867bddcfef17d6e),
    (QueryId::Q18, 0x8b23d19d6b810b6b),
    (QueryId::Q4, 0x412fe58eb17617c6),
    (QueryId::Q12, 0x4963a08874e876cc),
    (QueryId::Q14, 0xaabd07fcbdda713a),
    (QueryId::Ssb1_1, 0xf06e975de00c1ecb),
    (QueryId::Ssb2_1, 0x9ea1240cf6a68500),
    (QueryId::Ssb3_1, 0x70b4e18c6a863aac),
    (QueryId::Ssb4_1, 0x3689b1501b7077be),
];

/// The pin test's fingerprint: FNV-1a over column names, then each
/// row's values, `|`-separated.
fn fingerprint(r: &QueryResult) -> u64 {
    let mut canon = String::new();
    for c in &r.columns {
        canon.push_str(c);
        canon.push('|');
    }
    for row in &r.rows {
        for v in row {
            canon.push_str(&v.to_string());
            canon.push('|');
        }
        canon.push('\n');
    }
    dbep_core::obs::fingerprint64(canon.as_bytes())
}

/// True if `result` is the pinned default-parameter result of `query`.
pub fn matches_pin(query: QueryId, result: &QueryResult) -> bool {
    PINNED
        .iter()
        .any(|&(q, expected)| q == query && fingerprint(result) == expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbep_core::prelude::*;

    #[test]
    fn pins_hold_at_the_quick_scale() {
        let tpch = Session::new(dbep_core::datagen::tpch::generate(0.01, 42));
        let ssb = Session::new(dbep_core::datagen::ssb::generate(0.01, 42));
        for query in QueryId::ALL {
            let session = if QueryId::SSB.contains(&query) {
                &ssb
            } else {
                &tpch
            };
            let result = session.prepare(query).run(Engine::Typer);
            assert!(matches_pin(query, &result), "{}", query.name());
        }
    }

    #[test]
    fn the_first_result_is_the_reference() {
        let mut refs = References::default();
        let a = Digest { checksum: 1, rows: 2 };
        let b = Digest { checksum: 9, rows: 2 };
        let binding = Binding::Recurring(0);
        assert!(refs.agrees(QueryId::Q6, &binding, a));
        assert!(refs.agrees(QueryId::Q6, &binding, a));
        assert!(!refs.agrees(QueryId::Q6, &binding, b));
        assert!(refs.agrees(QueryId::Q6, &Binding::Recurring(1), b));
    }
}
