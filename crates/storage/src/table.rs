//! Tables: named collections of equal-length columns.

use crate::column::ColumnData;
use crate::encoded::{Arena, EncodedColumn};
use std::collections::HashMap;

/// An in-memory columnar table.
///
/// Lookup by column name happens once per query during plan construction;
/// execution holds on to the column slices directly.
///
/// **A table is flat or fully encoded.** [`Table::encode_all`] is the
/// only way to build compressed companions, and it builds one for every
/// column that has an encoding: always for `I32`/`I64`/`Date`, for `Str`
/// when the dictionary fits 256 entries, never for `Char`. So "some
/// numeric columns packed, some not" is not a state a table can be in,
/// and the engines' column readers pick one format per table. The flat
/// columns stay in either state (Volcano and the oracles read them).
#[derive(Clone, Debug, Default)]
pub struct Table {
    name: String,
    len: usize,
    columns: Vec<(String, ColumnData)>,
    by_name: HashMap<String, usize>,
    /// Compressed companions, keyed by column name; empty on a flat
    /// table.
    encoded: HashMap<String, EncodedColumn>,
}

impl Table {
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            len: 0,
            columns: Vec::new(),
            by_name: HashMap::new(),
            encoded: HashMap::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add a column. Panics if the length disagrees with existing columns
    /// or the name is duplicated — both are construction-time programmer
    /// errors, not runtime conditions.
    pub fn add_column(&mut self, name: impl Into<String>, data: ColumnData) -> &mut Self {
        let name = name.into();
        assert!(
            self.columns.is_empty() || data.len() == self.len,
            "column {} has {} rows, table {} has {}",
            name,
            data.len(),
            self.name,
            self.len
        );
        assert!(!self.by_name.contains_key(&name), "duplicate column {name}");
        self.len = data.len();
        self.by_name.insert(name.clone(), self.columns.len());
        self.columns.push((name, data));
        self
    }

    /// Column by name; panics with the table/column name on a miss
    /// (plan-construction error).
    pub fn col(&self, name: &str) -> &ColumnData {
        match self.by_name.get(name) {
            Some(&i) => &self.columns[i].1,
            None => panic!("table {} has no column {name}", self.name),
        }
    }

    pub fn has_column(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    pub fn columns(&self) -> impl Iterator<Item = (&str, &ColumnData)> + '_ {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Total payload bytes across all columns (Table 5 bandwidth model).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|(_, c)| c.byte_size()).sum()
    }

    /// What one row of the named flat columns costs to scan, in **bits**:
    /// 8 × Σ `byte_size() / len()` over the columns, 0 on an empty table.
    /// A string column counts its text and its offsets. This is the one
    /// width every engine charges a scan of flat columns (Table 5
    /// bandwidth model); a packed column is charged its packed width
    /// instead, by the reader that decodes it.
    pub fn flat_bits(&self, columns: &[&str]) -> usize {
        if self.is_empty() {
            return 0;
        }
        8 * columns
            .iter()
            .map(|c| self.col(c).byte_size() / self.len)
            .sum::<usize>()
    }

    /// Build compressed companions for every column that supports one
    /// (`Char` and high-cardinality string columns stay flat-only).
    pub fn encode_all(&mut self, arena: &Arena) {
        for (name, data) in &self.columns {
            if let Some(enc) = EncodedColumn::from_column(data, arena) {
                self.encoded.insert(name.clone(), enc);
            }
        }
    }

    /// Compressed companion of a column, if one was built.
    pub fn encoded(&self, name: &str) -> Option<&EncodedColumn> {
        self.encoded.get(name)
    }

    /// Encoded payload bytes across all companions.
    pub fn encoded_byte_size(&self) -> usize {
        self.encoded.values().map(|e| e.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let mut t = Table::new("part");
        t.add_column("p_partkey", ColumnData::I32(vec![1, 2, 3]))
            .add_column("p_size", ColumnData::I32(vec![10, 20, 30]));
        assert_eq!(t.len(), 3);
        assert_eq!(t.col("p_size").i32s(), &[10, 20, 30]);
        assert!(t.has_column("p_partkey"));
        assert!(!t.has_column("p_name"));
        assert_eq!(t.byte_size(), 24);
    }

    #[test]
    fn flat_bits_counts_text_and_offsets() {
        let mut t = Table::new("part");
        assert_eq!(t.flat_bits(&[]), 0);
        t.add_column("p_partkey", ColumnData::I32(vec![1, 2]))
            .add_column("p_price", ColumnData::I64(vec![10, 20]))
            .add_column(
                "p_type",
                ColumnData::Str(["PROMO", "STANDARD"].into_iter().collect()),
            );
        assert_eq!(t.flat_bits(&["p_partkey"]), 32);
        assert_eq!(t.flat_bits(&["p_partkey", "p_price"]), 96);
        // 13 text bytes and three 4-byte offsets over two rows: 12 bytes a row.
        assert_eq!(t.col("p_type").byte_size(), 13 + 12);
        assert_eq!(t.flat_bits(&["p_type"]), 8 * 12);
        assert_eq!(Table::new("empty").flat_bits(&["x"]), 0);
    }

    #[test]
    fn companion_encoding() {
        use crate::encoded::Arena;
        let mut t = Table::new("li");
        t.add_column("qty", ColumnData::I32(vec![1, 7, 3, 7]))
            .add_column("price", ColumnData::I64(vec![100, 200, 150, 175]))
            .add_column("flag", ColumnData::Char(vec![b'A', b'N', b'A', b'N']));
        let arena = Arena::new();
        t.encode_all(&arena);
        // qty: range 6 -> 3 bits; price: range 100 -> 7 bits; flag: no companion.
        assert_eq!(t.encoded("qty").unwrap().bits_per_value(), 3);
        assert_eq!(t.encoded("price").unwrap().bits_per_value(), 7);
        assert!(t.encoded("flag").is_none());
        assert!(t.encoded_byte_size() > 0);
    }

    #[test]
    #[should_panic(expected = "has no column")]
    fn missing_column_panics() {
        Table::new("t").col("nope");
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn length_mismatch_panics() {
        let mut t = Table::new("t");
        t.add_column("a", ColumnData::I32(vec![1, 2]));
        t.add_column("b", ColumnData::I32(vec![1]));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        let mut t = Table::new("t");
        t.add_column("a", ColumnData::I32(vec![1]));
        t.add_column("a", ColumnData::I32(vec![2]));
    }
}
