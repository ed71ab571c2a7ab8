//! Statistical-database inference control: aggregate queries with
//! small-count suppression and differencing (tracker) defense.
//!
//! §3.3 of the paper: "one needs to develop techniques to prevent users
//! from mining and extracting information from data whether they are on the
//! web or on networked servers" — the aggregate interface is the classic
//! channel: a COUNT/SUM over a small or overlapping query set reveals
//! individual values. The gate enforces:
//!
//! * **minimum query-set size** `k` — answers computed from fewer than `k`
//!   rows are suppressed;
//! * **differencing defense** — an answer whose row set differs from a
//!   previously answered set by fewer than `k` rows is suppressed, because
//!   subtracting the two aggregates would isolate those rows (the tracker
//!   attack).

use crate::table::{Table, Value};
use std::collections::{BTreeSet, HashMap};

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggregate {
    /// Row count.
    Count,
    /// Sum of an integer column.
    Sum(String),
    /// Mean of an integer column (returned ×1000 as an integer to stay in
    /// integer arithmetic).
    AvgMilli(String),
}

/// An aggregate query: function + conjunctive equality selection.
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// The aggregate to compute.
    pub aggregate: Aggregate,
    /// Equality predicates.
    pub selection: Vec<(String, Value)>,
}

impl AggregateQuery {
    /// Counts rows matching the filters.
    #[must_use]
    pub fn count() -> Self {
        AggregateQuery {
            aggregate: Aggregate::Count,
            selection: Vec::new(),
        }
    }

    /// Sums `column` over matching rows.
    #[must_use]
    pub fn sum(column: &str) -> Self {
        AggregateQuery {
            aggregate: Aggregate::Sum(column.to_string()),
            selection: Vec::new(),
        }
    }

    /// Adds an equality predicate (builder style).
    #[must_use]
    pub fn filter(mut self, column: &str, value: impl Into<Value>) -> Self {
        self.selection.push((column.to_string(), value.into()));
        self
    }

    /// Matching row indices.
    #[must_use]
    pub fn query_set(&self, table: &Table) -> BTreeSet<usize> {
        let Some(sel): Option<Vec<(usize, &Value)>> = self
            .selection
            .iter()
            .map(|(c, v)| table.column_index(c).map(|i| (i, v)))
            .collect()
        else {
            return BTreeSet::new();
        };
        table
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, row)| sel.iter().all(|(i, v)| &row[*i] == *v))
            .map(|(i, _)| i)
            .collect()
    }

    /// Evaluates over the given rows; `None` for type mismatches.
    #[must_use]
    pub fn evaluate(&self, table: &Table, rows: &BTreeSet<usize>) -> Option<i64> {
        match &self.aggregate {
            Aggregate::Count => Some(rows.len() as i64),
            Aggregate::Sum(col) => {
                let idx = table.column_index(col)?;
                let mut total = 0i64;
                for &r in rows {
                    match &table.rows()[r][idx] {
                        Value::Int(v) => total += v,
                        _ => return None,
                    }
                }
                Some(total)
            }
            Aggregate::AvgMilli(col) => {
                if rows.is_empty() {
                    return Some(0);
                }
                let sum = AggregateQuery {
                    aggregate: Aggregate::Sum(col.clone()),
                    selection: Vec::new(),
                }
                .evaluate(table, rows)?;
                Some(sum * 1000 / rows.len() as i64)
            }
        }
    }
}

/// Outcome of a gated aggregate query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateDecision {
    /// Released value.
    Answer(i64),
    /// Suppressed: fewer than `k` rows contributed.
    SuppressedSmallCount {
        /// The configured threshold.
        k: usize,
    },
    /// Suppressed: differencing against an earlier answer would isolate
    /// fewer than `k` individuals.
    SuppressedDifferencing {
        /// Size of the vulnerable difference.
        overlap_gap: usize,
    },
}

/// The aggregate gate over one table.
pub struct StatisticalGate {
    table: Table,
    k: usize,
    /// Per-subject history of answered query sets.
    answered: HashMap<String, Vec<BTreeSet<usize>>>,
}

impl StatisticalGate {
    /// Wraps `table` with minimum query-set size `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(table: Table, k: usize) -> Self {
        assert!(k > 0, "query-set size threshold must be positive");
        StatisticalGate {
            table,
            k,
            answered: HashMap::new(),
        }
    }

    /// The wrapped table.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Gates one aggregate query for `subject`.
    pub fn execute(&mut self, subject: &str, query: &AggregateQuery) -> AggregateDecision {
        let rows = query.query_set(&self.table);
        // Small-count suppression — and its complement: answering "all but
        // a few" is equally revealing (subtract from the total).
        let n = self.table.len();
        if rows.len() < self.k || n - rows.len() < self.k {
            return AggregateDecision::SuppressedSmallCount { k: self.k };
        }
        // Differencing: compare against previously answered sets.
        if let Some(history) = self.answered.get(subject) {
            for prev in history {
                let diff = rows.symmetric_difference(prev).count();
                if diff > 0 && diff < self.k {
                    return AggregateDecision::SuppressedDifferencing { overlap_gap: diff };
                }
            }
        }
        let Some(value) = query.evaluate(&self.table, &rows) else {
            return AggregateDecision::SuppressedSmallCount { k: self.k };
        };
        self.answered
            .entry(subject.to_string())
            .or_default()
            .push(rows);
        AggregateDecision::Answer(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn salaries() -> Table {
        let mut t = Table::new("staff", &["id", "dept", "salary"]);
        for (id, dept, salary) in [
            (1i64, "eng", 100i64),
            (2, "eng", 110),
            (3, "eng", 120),
            (4, "eng", 130),
            (5, "sales", 90),
            (6, "sales", 95),
            (7, "sales", 105),
            (8, "hr", 80),
        ] {
            t.insert(vec![id.into(), dept.into(), salary.into()]);
        }
        t
    }

    #[test]
    fn aggregates_compute() {
        let t = salaries();
        let all: BTreeSet<usize> = (0..t.len()).collect();
        assert_eq!(AggregateQuery::count().evaluate(&t, &all), Some(8));
        assert_eq!(AggregateQuery::sum("salary").evaluate(&t, &all), Some(830));
        let avg = AggregateQuery {
            aggregate: Aggregate::AvgMilli("salary".into()),
            selection: vec![],
        };
        assert_eq!(avg.evaluate(&t, &all), Some(830 * 1000 / 8));
    }

    #[test]
    fn query_set_filters() {
        let t = salaries();
        let q = AggregateQuery::count().filter("dept", "eng");
        assert_eq!(q.query_set(&t).len(), 4);
    }

    #[test]
    fn small_count_suppressed() {
        let mut gate = StatisticalGate::new(salaries(), 3);
        // hr has one row.
        let d = gate.execute(
            "analyst",
            &AggregateQuery::sum("salary").filter("dept", "hr"),
        );
        assert_eq!(d, AggregateDecision::SuppressedSmallCount { k: 3 });
        // eng has four rows: answered.
        let d = gate.execute(
            "analyst",
            &AggregateQuery::sum("salary").filter("dept", "eng"),
        );
        assert_eq!(d, AggregateDecision::Answer(460));
    }

    #[test]
    fn complement_suppressed() {
        // Asking for "everyone except hr" (7 of 8 rows) is as revealing as
        // asking for hr: total − answer isolates the hr row.
        let mut gate = StatisticalGate::new(salaries(), 3);
        let q = AggregateQuery::sum("salary").filter("dept", "eng");
        assert!(matches!(
            gate.execute("a", &q),
            AggregateDecision::Answer(_)
        ));
        // A 7-row set: all but hr. Build via two filters? Our language has
        // only conjunctive equality, so emulate: the complement rule
        // triggers when n - |rows| < k. All 8 rows: n - 8 = 0 < 3.
        let all = AggregateQuery::sum("salary");
        assert_eq!(
            gate.execute("a", &all),
            AggregateDecision::SuppressedSmallCount { k: 3 }
        );
    }

    #[test]
    fn differencing_attack_blocked() {
        // Tracker: sum(eng ∪ {victim}) − sum(eng) isolates the victim.
        // With equality-only selection we emulate: ask sum over dept=eng
        // (4 rows), then sum over salary>=... not expressible — instead
        // the canonical overlap: sales (3 rows) vs sales minus one person
        // isn't expressible either. Use two depts: {eng} then {eng} again
        // is identical (diff 0, allowed); {sales} (3 rows ≥ k) differs
        // from {eng} by 7 — allowed; but a set differing by 1 is blocked:
        let mut t = salaries();
        // Add a column splitting eng into two nearly-identical groups.
        // Rebuild table with a 'team' column.
        let mut t2 = Table::new("staff", &["id", "dept", "team", "salary"]);
        for (i, row) in t.rows().iter().enumerate() {
            let team = if i == 0 { "alpha" } else { "beta" };
            t2.insert(vec![
                row[0].clone(),
                row[1].clone(),
                team.into(),
                row[2].clone(),
            ]);
        }
        t = t2;
        let mut gate = StatisticalGate::new(t, 3);
        // Q1: all of eng (rows 0..4).
        let q1 = AggregateQuery::sum("salary").filter("dept", "eng");
        assert!(matches!(
            gate.execute("snoop", &q1),
            AggregateDecision::Answer(_)
        ));
        // Q2: eng ∩ team=beta (rows 1..4) — differs from Q1 by exactly the
        // victim (row 0): blocked.
        let q2 = AggregateQuery::sum("salary")
            .filter("dept", "eng")
            .filter("team", "beta");
        assert_eq!(
            gate.execute("snoop", &q2),
            AggregateDecision::SuppressedDifferencing { overlap_gap: 1 }
        );
        // A different subject with no history gets the answer.
        assert!(matches!(
            gate.execute("fresh", &q2),
            AggregateDecision::Answer(_)
        ));
    }

    #[test]
    fn identical_reissue_allowed() {
        let mut gate = StatisticalGate::new(salaries(), 3);
        let q = AggregateQuery::count().filter("dept", "eng");
        assert_eq!(gate.execute("a", &q), AggregateDecision::Answer(4));
        // Same query set (diff 0): learning nothing new, allowed.
        assert_eq!(gate.execute("a", &q), AggregateDecision::Answer(4));
    }

    #[test]
    fn sum_over_text_column_suppressed() {
        let mut gate = StatisticalGate::new(salaries(), 3);
        let q = AggregateQuery::sum("dept").filter("dept", "eng");
        assert!(matches!(
            gate.execute("a", &q),
            AggregateDecision::SuppressedSmallCount { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = StatisticalGate::new(salaries(), 0);
    }
}
