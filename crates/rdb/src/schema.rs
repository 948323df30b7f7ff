//! Table schemas: typed, named columns.

use crate::error::RdbError;
use aiql_model::Value;
use std::collections::HashMap;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Int,
    Float,
    Str,
    Bool,
}

impl ColumnType {
    /// Whether `v` is admissible in a column of this type (NULL always is).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }
}

/// One row of a table.
pub type Row = Vec<Value>;

/// An ordered list of typed columns with name → position lookup.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if two columns share a name; schemas are static declarations,
    /// so a duplicate is a programming error.
    pub fn new(cols: &[(&str, ColumnType)]) -> Schema {
        let columns: Vec<(String, ColumnType)> =
            cols.iter().map(|(n, t)| (n.to_string(), *t)).collect();
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, (n, _)) in columns.iter().enumerate() {
            assert!(
                by_name.insert(n.clone(), i).is_none(),
                "duplicate column name: {n}"
            );
        }
        Schema { columns, by_name }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Position of `name`, or a `NoSuchColumn` error.
    pub fn require(&self, name: &str) -> Result<usize, RdbError> {
        self.position(name)
            .ok_or_else(|| RdbError::NoSuchColumn(name.to_string()))
    }

    /// Column name at `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.columns[idx].0
    }

    /// Column type at `idx`.
    pub fn column_type(&self, idx: usize) -> ColumnType {
        self.columns[idx].1
    }

    /// Iterates `(name, type)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ColumnType)> {
        self.columns.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// Validates a row against the schema (arity and per-column type).
    pub fn check_row(&self, row: &[Value]) -> Result<(), RdbError> {
        if row.len() != self.arity() {
            return Err(RdbError::SchemaMismatch(format!(
                "expected {} columns, got {}",
                self.arity(),
                row.len()
            )));
        }
        for (i, v) in row.iter().enumerate() {
            if !self.columns[i].1.admits(v) {
                return Err(RdbError::SchemaMismatch(format!(
                    "column {} ({:?}) cannot hold {v:?}",
                    self.name(i),
                    self.columns[i].1
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Schema {
        Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)])
    }

    #[test]
    fn lookup() {
        let s = s();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.position("name"), Some(1));
        assert_eq!(s.position("nope"), None);
        assert!(s.require("id").is_ok());
        assert!(matches!(s.require("x"), Err(RdbError::NoSuchColumn(_))));
        assert_eq!(s.name(0), "id");
        assert_eq!(s.column_type(1), ColumnType::Str);
    }

    #[test]
    fn row_validation() {
        let s = s();
        assert!(s.check_row(&[Value::Int(1), Value::str("a")]).is_ok());
        assert!(s.check_row(&[Value::Int(1), Value::Null]).is_ok());
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        assert!(s.check_row(&[Value::str("x"), Value::str("a")]).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_panic() {
        Schema::new(&[("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }

    #[test]
    fn admits_matrix() {
        assert!(ColumnType::Int.admits(&Value::Int(1)));
        assert!(ColumnType::Int.admits(&Value::Null));
        assert!(!ColumnType::Int.admits(&Value::str("x")));
        assert!(ColumnType::Float.admits(&Value::Float(1.0)));
        assert!(!ColumnType::Float.admits(&Value::Int(1)));
        assert!(ColumnType::Bool.admits(&Value::Bool(true)));
    }
}
