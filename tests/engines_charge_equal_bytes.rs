//! One plan, one byte charge: every engine's scans are charged the
//! widths storage holds, so the three engines report the same
//! `bytes_scanned` for the same plan.
//!
//! At SF 0.01, seed 42, on pooled sessions at 1 and 2 threads:
//! - on flat storage, Typer, Tectorwise and Volcano charge equal bytes
//!   on all 12 plans (Volcano's figures are pinned by
//!   `volcano_accounting.rs`, so this pins the other two to them);
//! - on encoded storage, Typer and Tectorwise charge equal bytes on all
//!   12 plans (Volcano reads the flat columns there, so it is left out).
//!
//! A stage that charges a guessed per-row width, leaves a string
//! column's offsets out, or builds a table outside the paced driver
//! makes the block-at-a-time engines charge less than Volcano.

use db_engine_paradigms::prelude::*;

fn sessions(encoded: bool, threads: usize) -> (Session, Session) {
    let (tpch, ssb) = if encoded {
        (
            dbep_datagen::tpch::generate_encoded(0.01, 42),
            dbep_datagen::ssb::generate_encoded(0.01, 42),
        )
    } else {
        (
            dbep_datagen::tpch::generate(0.01, 42),
            dbep_datagen::ssb::generate(0.01, 42),
        )
    };
    let cfg = ExecCfg::with_threads(threads);
    (Session::with_cfg(tpch, cfg), Session::with_cfg(ssb, cfg))
}

/// The plans on which `engines` charge different bytes, each with the
/// bytes every engine charged.
fn disagreements(encoded: bool, threads: usize, engines: &[Engine]) -> Vec<String> {
    let (tpch, ssb) = sessions(encoded, threads);
    let mut bad = Vec::new();
    for q in QueryId::ALL {
        let session = if QueryId::SSB.contains(&q) { &ssb } else { &tpch };
        let prepared = session.prepare(q);
        let charged: Vec<u64> = engines
            .iter()
            .map(|&e| prepared.run_with_stats(e).1.bytes_scanned)
            .collect();
        if charged.iter().any(|&b| b != charged[0]) {
            let each: Vec<String> = engines
                .iter()
                .zip(&charged)
                .map(|(e, b)| format!("{} {b}", e.name()))
                .collect();
            bad.push(format!("{} ({threads} threads): {}", q.name(), each.join(", ")));
        }
    }
    bad
}

#[test]
fn all_three_engines_charge_the_same_flat_bytes_on_every_plan() {
    for threads in [1, 2] {
        let bad = disagreements(false, threads, &Engine::ALL);
        assert!(
            bad.is_empty(),
            "{} plans charge unequal flat bytes:\n{}",
            bad.len(),
            bad.join("\n")
        );
    }
}

#[test]
fn typer_and_tectorwise_charge_the_same_encoded_bytes_on_every_plan() {
    for threads in [1, 2] {
        let bad = disagreements(true, threads, &[Engine::Typer, Engine::Tectorwise]);
        assert!(
            bad.is_empty(),
            "{} plans charge unequal encoded bytes:\n{}",
            bad.len(),
            bad.join("\n")
        );
    }
}
