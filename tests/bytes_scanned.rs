//! Bandwidth accounting for compressed scans: the whole point of the
//! encoded storage layer is that bandwidth-bound plans touch fewer
//! bytes. This pins the claim with the scheduler-side `bytes_scanned`
//! counter: at SF 0.1, the four fused-scan plans (Q6, Q1, Q14 on TPC-H,
//! Q1.1 on SSB) over encoded storage must scan at most half the bytes
//! of the flat layout — with identical results — on both
//! block-at-a-time engines, and the two engines, whose column readers
//! charge what they hold, must charge the same bytes on each layout.
//! Volcano always scans the flat columns, so its byte volume must not
//! change (it is the honest uncompressed baseline in the comparison).

use db_engine_paradigms::prelude::*;

const SF: f64 = 0.1;
const THREADS: usize = 4;

#[test]
fn q6_q1_bytes_scanned_at_least_halved_by_encoding() {
    let flat = Session::with_cfg(
        dbep_datagen::tpch::generate_par(SF, 42, THREADS),
        ExecCfg::with_threads(THREADS),
    );
    let enc = Session::with_cfg(
        dbep_datagen::tpch::generate_encoded_par(SF, 42, THREADS),
        ExecCfg::with_threads(THREADS),
    );
    bytes_at_least_halved(&flat, &enc, &[QueryId::Q6, QueryId::Q1, QueryId::Q14]);
}

#[test]
fn ssb_q1_1_bytes_scanned_at_least_halved_by_encoding() {
    let flat = Session::with_cfg(
        dbep_datagen::ssb::generate_par(SF, 42, THREADS),
        ExecCfg::with_threads(THREADS),
    );
    let enc = Session::with_cfg(
        dbep_datagen::ssb::generate_encoded_par(SF, 42, THREADS),
        ExecCfg::with_threads(THREADS),
    );
    bytes_at_least_halved(&flat, &enc, &[QueryId::Ssb1_1]);
}

fn bytes_at_least_halved(flat: &Session, enc: &Session, queries: &[QueryId]) {
    for &q in queries {
        let mut charged = Vec::new();
        for engine in [Engine::Typer, Engine::Tectorwise] {
            let (r_flat, s_flat) = flat.prepare(q).run_with_stats(engine);
            let (r_enc, s_enc) = enc.prepare(q).run_with_stats(engine);
            assert_eq!(
                r_flat,
                r_enc,
                "{} on {engine:?}: encoded result differs",
                q.name()
            );
            assert!(
                s_flat.bytes_scanned > 0 && s_enc.bytes_scanned > 0,
                "{} on {engine:?}: bytes_scanned not recorded (flat {}, encoded {})",
                q.name(),
                s_flat.bytes_scanned,
                s_enc.bytes_scanned
            );
            assert!(
                s_enc.bytes_scanned * 2 <= s_flat.bytes_scanned,
                "{} on {engine:?}: encoded scan reads {} bytes, flat {} — less than the 2x bar",
                q.name(),
                s_enc.bytes_scanned,
                s_flat.bytes_scanned
            );
            charged.push((s_flat.bytes_scanned, s_enc.bytes_scanned));
        }
        assert_eq!(
            charged[0],
            charged[1],
            "{}: Typer and Tectorwise charge different (flat, encoded) bytes",
            q.name()
        );
        // Volcano ignores companions: same plan, same flat byte volume.
        let (rv_flat, sv_flat) = flat.prepare(q).run_with_stats(Engine::Volcano);
        let (rv_enc, sv_enc) = enc.prepare(q).run_with_stats(Engine::Volcano);
        assert_eq!(rv_flat, rv_enc, "{}: volcano result differs", q.name());
        assert_eq!(
            sv_flat.bytes_scanned,
            sv_enc.bytes_scanned,
            "{}: volcano must scan flat columns regardless of companions",
            q.name()
        );
    }
}
