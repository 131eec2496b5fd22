//! The database catalog: a named set of tables.

use crate::table::Table;
use std::collections::HashMap;

/// A database: the unit both benchmark generators produce and all engines
/// consume.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    pub fn add(&mut self, table: Table) -> &mut Self {
        self.tables.insert(table.name().to_string(), table);
        self
    }

    /// Table by name; panics with the name on a miss (plan-construction
    /// error).
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("database has no table {name}"))
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> + '_ {
        self.tables.values()
    }

    /// Total payload bytes (used to report working-set sizes).
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(|t| t.byte_size()).sum()
    }

    /// Build compressed companions for every encodable column of every
    /// table, sharing one allocation arena across the pass.
    pub fn encode_all(&mut self) {
        let arena = crate::encoded::Arena::new();
        for table in self.tables.values_mut() {
            table.encode_all(&arena);
        }
    }

    /// True once [`Database::encode_all`] (or a per-table equivalent)
    /// has built at least one compressed companion.
    pub fn is_encoded(&self) -> bool {
        self.tables.values().any(|t| t.encoded_byte_size() > 0)
    }

    /// Encoded payload bytes across all tables.
    pub fn encoded_byte_size(&self) -> usize {
        self.tables.values().map(|t| t.encoded_byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        let mut t = Table::new("nation");
        t.add_column("n_nationkey", ColumnData::I32(vec![0, 1]));
        db.add(t);
        assert_eq!(db.table("nation").len(), 2);
        assert_eq!(db.tables().count(), 1);
        assert_eq!(db.byte_size(), 8);
    }

    #[test]
    #[should_panic(expected = "no table")]
    fn missing_table_panics() {
        Database::new().table("lineitem");
    }
}
