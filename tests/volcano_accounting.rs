//! Pin test: what the Volcano plan interpreter must keep of the
//! hand-wired operator trees it replaced, at every thread count.
//!
//! For all 12 plans at SF 0.01, seed 42, on flat and encoded storage:
//! the §3.4 normalization denominator (`tuples_scanned`) and Volcano's
//! scheduler-side `bytes_scanned` on a pooled session at 1, 2 and 4
//! threads must equal the values recorded from the hand-wired trees at
//! one thread. A scan the interpreter forgets to pace and record, a
//! table it forgets to count, or a build side it reads more than once
//! changes one of these numbers.
//!
//! Volcano scans the flat columns on either storage, so one row of
//! pinned values serves both layouts.

use db_engine_paradigms::prelude::*;

/// (query, tuples_scanned, Volcano bytes_scanned) at SF 0.01 / seed 42.
/// The bytes do not depend on the thread count: every build side is
/// built once, its scan partitioned across the workers like the
/// driving scan's, so every scan reads its table exactly once.
const PINNED: [(QueryId, usize, u64); 12] = [
    (QueryId::Q1, 60_569, 2_301_622),
    (QueryId::Q6, 60_569, 1_695_932),
    (QueryId::Q3, 77_069, 1_717_656),
    (QueryId::Q9, 85_669, 2_509_284),
    (QueryId::Q18, 137_638, 1_065_828),
    (QueryId::Q4, 75_569, 1_026_828),
    (QueryId::Q12, 75_569, 1_693_656),
    (QueryId::Q14, 62_569, 1_509_656),
    (QueryId::Ssb1_1, 62_557, 1_700_456),
    (QueryId::Ssb2_1, 262_577, 3_620_616),
    (QueryId::Ssb3_1, 62_877, 1_224_296),
    (QueryId::Ssb4_1, 262_877, 3_544_216),
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
        for threads in [1, 2, 4] {
            let (tpch, ssb) = sessions(0.01, encoded, threads);
            for (q, tuples, bytes) in PINNED {
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
