//! A stage charges one `row_bits` whichever paradigm runs it, and the
//! stages that read through column readers take it from the Typer
//! reader (`RowScan::bits`). That charges Tectorwise right only while
//! its readers of the same columns (`Col::bits`) report the same widths,
//! which this pins for every such stage (Q1, Q6, Q14's build and probe,
//! SSB Q1.1) on flat and on encoded tables. What a stage charges beside
//! its readers (Q1's two flag bytes, Q14's `p_type` flag) is added to
//! the one `row_bits` both paradigms share, so it cannot differ.

use dbep_compiled::RowScan;
use dbep_storage::Database;
use dbep_vectorized::Col;

/// `RowScan::bits` and the sum of `Col::bits` over the same columns.
fn widths<const A: usize, const B: usize>(
    db: &Database,
    table: &str,
    i32s: [&str; A],
    i64s: [&str; B],
) -> (usize, usize) {
    let t = db.table(table);
    let cols = i32s.iter().map(|c| Col::<i32>::of(t, c).bits()).sum::<usize>()
        + i64s.iter().map(|c| Col::<i64>::of(t, c).bits()).sum::<usize>();
    (RowScan::of(t, i32s, i64s).bits(), cols)
}

/// The readers' widths of every stage that reads through them, by stage.
fn stage_widths(tpch: &Database, ssb: &Database) -> Vec<(&'static str, (usize, usize))> {
    vec![
        (
            "q1 scan-agg-lineitem",
            widths(
                tpch,
                "lineitem",
                ["l_shipdate"],
                ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
            ),
        ),
        (
            "q6 scan-filter-lineitem",
            widths(
                tpch,
                "lineitem",
                ["l_shipdate"],
                ["l_discount", "l_quantity", "l_extendedprice"],
            ),
        ),
        ("q14 build-part", widths(tpch, "part", ["p_partkey"], [])),
        (
            "q14 probe-lineitem",
            widths(
                tpch,
                "lineitem",
                ["l_partkey", "l_shipdate"],
                ["l_extendedprice", "l_discount"],
            ),
        ),
        (
            "ssb-q1.1 scan-filter-lineorder",
            widths(
                ssb,
                "lineorder",
                ["lo_orderdate"],
                ["lo_discount", "lo_quantity", "lo_extendedprice"],
            ),
        ),
    ]
}

#[test]
fn row_scan_and_col_readers_report_equal_widths_flat_and_encoded() {
    let mut tpch = dbep_datagen::tpch::generate(0.01, 42);
    let mut ssb = dbep_datagen::ssb::generate(0.01, 42);
    let flat = stage_widths(&tpch, &ssb);
    tpch.encode_all();
    ssb.encode_all();
    let encoded = stage_widths(&tpch, &ssb);
    for ((stage, (scan_flat, cols_flat)), (_, (scan_enc, cols_enc))) in flat.into_iter().zip(encoded) {
        assert_eq!(
            scan_flat, cols_flat,
            "{stage}: flat RowScan and Col widths differ"
        );
        assert_eq!(
            scan_enc, cols_enc,
            "{stage}: encoded RowScan and Col widths differ"
        );
        // The encoded case must read packed columns, or it checks the
        // flat widths twice.
        assert!(
            scan_enc < scan_flat,
            "{stage}: encoded width {scan_enc} is not below flat {scan_flat}"
        );
    }
}
