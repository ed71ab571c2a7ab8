//! Relational-lite substrate: tables with projection/selection queries.
//!
//! The inference controller gates queries against this store; it is the
//! "web database" holding "data or information about individuals that one
//! can obtain within seconds" (§3.3).

use std::collections::HashMap;

/// A cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Text.
    Str(String),
    /// Integer.
    Int(i64),
    /// Missing.
    Null,
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// A named table with a fixed column list.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    columns: Vec<String>,
    col_index: HashMap<String, usize>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table with the given columns.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    #[must_use]
    pub fn new(name: &str, columns: &[&str]) -> Self {
        let mut col_index = HashMap::new();
        for (i, c) in columns.iter().enumerate() {
            let prev = col_index.insert((*c).to_string(), i);
            assert!(prev.is_none(), "duplicate column '{c}'");
        }
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            col_index,
            rows: Vec::new(),
        }
    }

    /// The column names.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.col_index.get(name).copied()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity does not match.
    pub fn insert(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Raw row access.
    #[must_use]
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Cell access by row index and column name.
    #[must_use]
    pub fn cell(&self, row: usize, column: &str) -> Option<&Value> {
        let c = self.column_index(column)?;
        self.rows.get(row).map(|r| &r[c])
    }
}

/// A projection/selection query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Columns to return.
    pub projection: Vec<String>,
    /// Equality predicates, conjunctive.
    pub selection: Vec<(String, Value)>,
}

impl Query {
    /// Projects the given columns with no selection.
    #[must_use]
    pub fn select(projection: &[&str]) -> Self {
        Query {
            projection: projection.iter().map(|s| (*s).to_string()).collect(),
            selection: Vec::new(),
        }
    }

    /// Adds an equality predicate (builder style).
    #[must_use]
    pub fn filter(mut self, column: &str, value: impl Into<Value>) -> Self {
        self.selection.push((column.to_string(), value.into()));
        self
    }

    /// Evaluates against `table`: returns `(matching base-row indices,
    /// projected rows)`. Unknown columns yield empty results.
    #[must_use]
    pub fn run(&self, table: &Table) -> (Vec<usize>, Vec<Vec<Value>>) {
        let Some(proj_idx) = self
            .projection
            .iter()
            .map(|c| table.column_index(c))
            .collect::<Option<Vec<usize>>>()
        else {
            return (Vec::new(), Vec::new());
        };
        let Some(sel_idx) = self
            .selection
            .iter()
            .map(|(c, v)| table.column_index(c).map(|i| (i, v)))
            .collect::<Option<Vec<(usize, &Value)>>>()
        else {
            return (Vec::new(), Vec::new());
        };

        let mut hits = Vec::new();
        let mut out = Vec::new();
        for (ri, row) in table.rows().iter().enumerate() {
            if sel_idx.iter().all(|(i, v)| &row[*i] == *v) {
                hits.push(ri);
                out.push(proj_idx.iter().map(|&i| row[i].clone()).collect());
            }
        }
        (hits, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patients() -> Table {
        let mut t = Table::new("patients", &["id", "name", "ward", "diagnosis"]);
        t.insert(vec![1i64.into(), "Alice".into(), "w1".into(), "flu".into()]);
        t.insert(vec![
            2i64.into(),
            "Bob".into(),
            "w1".into(),
            "injury".into(),
        ]);
        t.insert(vec![3i64.into(), "Carol".into(), "w2".into(), "flu".into()]);
        t
    }

    #[test]
    fn insert_and_access() {
        let t = patients();
        assert_eq!(t.len(), 3);
        assert_eq!(t.cell(1, "name"), Some(&Value::Str("Bob".into())));
        assert_eq!(t.cell(1, "nope"), None);
        assert_eq!(t.cell(9, "name"), None);
    }

    #[test]
    fn projection() {
        let t = patients();
        let (hits, rows) = Query::select(&["name"]).run(&t);
        assert_eq!(hits, vec![0, 1, 2]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::Str("Alice".into())]);
    }

    #[test]
    fn selection() {
        let t = patients();
        let (hits, rows) = Query::select(&["name", "diagnosis"])
            .filter("ward", "w1")
            .run(&t);
        assert_eq!(hits, vec![0, 1]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn conjunctive_selection() {
        let t = patients();
        let (_, rows) = Query::select(&["name"])
            .filter("ward", "w1")
            .filter("diagnosis", "flu")
            .run(&t);
        assert_eq!(rows, vec![vec![Value::Str("Alice".into())]]);
    }

    #[test]
    fn unknown_column_empty() {
        let t = patients();
        let (hits, rows) = Query::select(&["nope"]).run(&t);
        assert!(hits.is_empty() && rows.is_empty());
        let (hits, _) = Query::select(&["name"]).filter("nope", 1i64).run(&t);
        assert!(hits.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.insert(vec![Value::Null]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        let _ = Table::new("t", &["a", "a"]);
    }
}
