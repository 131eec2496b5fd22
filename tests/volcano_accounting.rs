//! Pin test: what the Volcano plan interpreter must keep of the
//! hand-wired operator trees it replaced.
//!
//! For all 12 plans at SF 0.01, seed 42, on flat and encoded storage:
//! the §3.4 normalization denominator (`tuples_scanned`) and Volcano's
//! scheduler-side `bytes_scanned` on a pooled session at 1 and 4
//! threads must equal the values recorded from the hand-wired trees. A
//! scan the interpreter forgets to pace and record, or a table it
//! forgets to count, changes one of these numbers.
//!
//! Volcano scans the flat columns on either storage, so one row of
//! pinned values serves both layouts.

use db_engine_paradigms::prelude::*;

/// (query, tuples_scanned, Volcano bytes_scanned at [1, 4] threads) at
/// SF 0.01 / seed 42. More threads scan more bytes: every worker builds
/// its own copy of the blocking build sides, and only the driving scan
/// is partitioned.
const PINNED: [(QueryId, usize, [u64; 2]); 12] = [
    (QueryId::Q1, 60_569, [2_301_622, 2_301_622]),
    (QueryId::Q6, 60_569, [1_695_932, 1_695_932]),
    (QueryId::Q3, 77_069, [1_717_656, 2_509_656]),
    (QueryId::Q9, 85_669, [2_509_284, 9_677_136]),
    (QueryId::Q18, 137_638, [1_065_828, 3_363_312]),
    (QueryId::Q4, 75_569, [1_026_828, 3_207_312]),
    (QueryId::Q12, 75_569, [1_693_656, 2_413_656]),
    (QueryId::Q14, 62_569, [1_509_656, 1_677_656]),
    (QueryId::Ssb1_1, 62_557, [1_700_456, 1_761_824]),
    (QueryId::Ssb2_1, 262_577, [3_620_616, 10_882_464]),
    (QueryId::Ssb3_1, 62_877, [1_224_296, 1_297_184]),
    (QueryId::Ssb4_1, 262_877, [3_544_216, 8_416_864]),
];

fn sessions(sf: f64, encoded: bool, threads: usize) -> (Session, Session) {
    let (tpch, ssb) = if encoded {
        (
            dbep_datagen::tpch::generate_encoded(sf, 42),
            dbep_datagen::ssb::generate_encoded(sf, 42),
        )
    } else {
        (
            dbep_datagen::tpch::generate(sf, 42),
            dbep_datagen::ssb::generate(sf, 42),
        )
    };
    let cfg = ExecCfg::with_threads(threads);
    (Session::with_cfg(tpch, cfg), Session::with_cfg(ssb, cfg))
}

#[test]
fn volcano_tuples_and_bytes_scanned_match_the_hand_wired_plans() {
    for encoded in [false, true] {
        for (t, threads) in [1, 4].into_iter().enumerate() {
            let (tpch, ssb) = sessions(0.01, encoded, threads);
            for (q, tuples, bytes) in PINNED {
                let bytes = bytes[t];
                let session = if QueryId::SSB.contains(&q) { &ssb } else { &tpch };
                let prepared = session.prepare(q);
                let (_, stats) = prepared.run_with_stats(Engine::Volcano);
                let at = format!("{} (encoded {encoded}, {threads} threads)", q.name());
                assert_eq!(prepared.tuples_scanned(), tuples, "tuples_scanned of {at}");
                assert_eq!(
                    q.tuples_scanned(session.db()),
                    tuples,
                    "QueryId::tuples_scanned of {at}"
                );
                assert_eq!(stats.bytes_scanned, bytes, "Volcano bytes_scanned of {at}");
            }
        }
    }
}
