//! The inference controller: a query gate with release-history tracking.
//!
//! "Inference is the process of posing queries and deducing new information.
//! It becomes a problem when the deduced information is something the user
//! is unauthorized to know." (§5) The controller (\[14\]) prevents a subject
//! from assembling a private attribute combination across *multiple*
//! queries: it remembers, per subject and per individual (key value), which
//! attributes have already been released, and evaluates each new query
//! against the *cumulative* disclosure it would cause.

use crate::constraints::{classify, PrivacyConstraint, PrivacyLevel};
use crate::table::{Query, Table, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Outcome of gating one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryDecision {
    /// Answer released in full.
    Allowed {
        /// The projected rows.
        rows: Vec<Vec<Value>>,
    },
    /// Some projected columns were withheld to avoid completing a private
    /// combination; the remaining columns are released.
    Sanitized {
        /// Released columns (in answer order).
        released_columns: Vec<String>,
        /// The sanitized rows.
        rows: Vec<Vec<Value>>,
        /// Withheld columns.
        withheld: Vec<String>,
    },
    /// Nothing could be released.
    Denied,
}

/// How release history is tracked — the granularity ablation of
/// EXPERIMENTS.md (A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistoryGranularity {
    /// Track disclosures per (subject, individual): precise, allows
    /// releasing different attributes of *different* individuals.
    #[default]
    PerIndividual,
    /// Track one disclosure set per subject across the whole table:
    /// cheaper and simpler, but over-restrictive (denies benign queries
    /// that touch disjoint individuals).
    Coarse,
}

/// The inference controller for one table.
pub struct InferenceController {
    table: Table,
    key_column: String,
    constraints: Vec<PrivacyConstraint>,
    granularity: HistoryGranularity,
    /// Subjects allowed to receive semi-private combinations.
    need_to_know: HashSet<String>,
    /// (subject, key value) → attributes already released. Coarse
    /// granularity uses `Value::Null` as the single bucket.
    history: HashMap<(String, Value), BTreeSet<String>>,
}

impl InferenceController {
    /// Wraps `table`, identifying individuals by `key_column`.
    ///
    /// # Panics
    /// Panics if `key_column` is not a column of `table`.
    #[must_use]
    pub fn new(table: Table, key_column: &str, constraints: Vec<PrivacyConstraint>) -> Self {
        assert!(
            table.column_index(key_column).is_some(),
            "unknown key column '{key_column}'"
        );
        InferenceController {
            table,
            key_column: key_column.to_string(),
            constraints,
            granularity: HistoryGranularity::default(),
            need_to_know: HashSet::new(),
            history: HashMap::new(),
        }
    }

    /// Switches the history granularity (builder style; see
    /// [`HistoryGranularity`]).
    #[must_use]
    pub fn with_granularity(mut self, granularity: HistoryGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// The key that buckets history entries for row `ri`.
    fn history_key(&self, ri: usize) -> Value {
        match self.granularity {
            HistoryGranularity::PerIndividual => self
                .table
                .cell(ri, &self.key_column)
                .expect("key column exists")
                .clone(),
            HistoryGranularity::Coarse => Value::Null,
        }
    }

    /// Registers `subject` as having a need to know (may receive
    /// semi-private combinations).
    pub fn grant_need_to_know(&mut self, subject: &str) {
        self.need_to_know.insert(subject.to_string());
    }

    /// The wrapped table (for unfiltered/administrative access and for the
    /// "no controller" experiment baseline).
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The maximum level `subject` may receive.
    fn ceiling(&self, subject: &str) -> PrivacyLevel {
        if self.need_to_know.contains(subject) {
            PrivacyLevel::SemiPrivate
        } else {
            PrivacyLevel::Public
        }
    }

    /// Gates `query` for `subject`: checks, per matching individual, the
    /// cumulative disclosure (query columns ∪ release history), withholding
    /// columns as needed. Released attributes are recorded in the history.
    pub fn execute(&mut self, subject: &str, query: &Query) -> QueryDecision {
        let (hit_rows, _) = query.run(&self.table);
        if hit_rows.is_empty() {
            return QueryDecision::Allowed { rows: Vec::new() };
        }
        let ceiling = self.ceiling(subject);

        // The *selection* predicates also disclose their columns (the
        // requester learns "this row has ward = w1"), so count them too.
        let disclosed_by_query: BTreeSet<String> = query
            .projection
            .iter()
            .chain(query.selection.iter().map(|(c, _)| c))
            .cloned()
            .collect();

        // Decide, per column, whether releasing it to this subject keeps
        // every matching individual's cumulative disclosure at or under the
        // ceiling. A column is withheld if for ANY matching row it would
        // complete an over-ceiling combination.
        let mut released: Vec<String> = Vec::new();
        let mut withheld: Vec<String> = Vec::new();
        // Evaluate columns in projection order, greedily accumulating: each
        // accepted column joins the disclosure set used to test the next.
        for col in &query.projection {
            let mut ok = true;
            for &ri in &hit_rows {
                let key = self.history_key(ri);
                let mut cumulative: BTreeSet<String> = self
                    .history
                    .get(&(subject.to_string(), key))
                    .cloned()
                    .unwrap_or_default();
                // Already-accepted columns + selection columns + candidate.
                cumulative.extend(released.iter().cloned());
                cumulative.extend(query.selection.iter().map(|(c, _)| c.clone()));
                cumulative.insert(col.clone());
                if classify(&self.constraints, &cumulative) > ceiling {
                    ok = false;
                    break;
                }
            }
            if ok {
                released.push(col.clone());
            } else {
                withheld.push(col.clone());
            }
        }

        if released.is_empty() {
            return QueryDecision::Denied;
        }

        // Record history and build the sanitized answer.
        let sanitized = Query {
            projection: released.clone(),
            selection: query.selection.clone(),
        };
        let (rows_idx, rows) = sanitized.run(&self.table);
        let newly_disclosed: BTreeSet<String> = released
            .iter()
            .chain(query.selection.iter().map(|(c, _)| c))
            .cloned()
            .collect();
        for &ri in &rows_idx {
            let key = self.history_key(ri);
            self.history
                .entry((subject.to_string(), key))
                .or_default()
                .extend(newly_disclosed.iter().cloned());
        }
        let _ = disclosed_by_query;

        if withheld.is_empty() {
            QueryDecision::Allowed { rows }
        } else {
            QueryDecision::Sanitized {
                released_columns: released,
                rows,
                withheld,
            }
        }
    }

    /// Counts, over the current history, how many (subject, individual)
    /// pairs have accumulated a disclosure exceeding that subject's ceiling
    /// — zero for a correct controller; the "no controller" baseline in E7
    /// reports the breaches an ungated interface would have allowed.
    #[must_use]
    pub fn breaches(&self) -> usize {
        self.history
            .iter()
            .filter(|((subject, _), disclosed)| {
                classify(&self.constraints, disclosed) > self.ceiling(subject)
            })
            .count()
    }

    /// Simulates the ungated baseline: what cumulative disclosure the same
    /// query stream would cause without the controller, returning the
    /// number of private-combination breaches.
    #[must_use]
    pub fn simulate_ungated(
        table: &Table,
        key_column: &str,
        constraints: &[PrivacyConstraint],
        stream: &[(String, Query)],
    ) -> usize {
        let mut history: HashMap<(String, Value), BTreeSet<String>> = HashMap::new();
        for (subject, query) in stream {
            let (rows, _) = query.run(table);
            let disclosed: BTreeSet<String> = query
                .projection
                .iter()
                .chain(query.selection.iter().map(|(c, _)| c))
                .cloned()
                .collect();
            for &ri in &rows {
                if let Some(key) = table.cell(ri, key_column) {
                    history
                        .entry((subject.clone(), key.clone()))
                        .or_default()
                        .extend(disclosed.iter().cloned());
                }
            }
        }
        history
            .values()
            .filter(|d| classify(constraints, d) > PrivacyLevel::Public)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> InferenceController {
        let mut t = Table::new("patients", &["id", "name", "ward", "diagnosis"]);
        t.insert(vec![1i64.into(), "Alice".into(), "w1".into(), "flu".into()]);
        t.insert(vec![2i64.into(), "Bob".into(), "w1".into(), "hiv".into()]);
        InferenceController::new(
            t,
            "id",
            vec![PrivacyConstraint::new(
                &["name", "diagnosis"],
                PrivacyLevel::Private,
            )],
        )
    }

    #[test]
    fn harmless_query_allowed() {
        let mut c = controller();
        let d = c.execute("analyst", &Query::select(&["name", "ward"]));
        assert!(matches!(d, QueryDecision::Allowed { rows } if rows.len() == 2));
    }

    #[test]
    fn direct_private_combination_sanitized() {
        let mut c = controller();
        let d = c.execute("analyst", &Query::select(&["name", "diagnosis"]));
        match d {
            QueryDecision::Sanitized {
                released_columns,
                withheld,
                ..
            } => {
                assert_eq!(released_columns, vec!["name"]);
                assert_eq!(withheld, vec!["diagnosis"]);
            }
            other => panic!("expected sanitized, got {other:?}"),
        }
        assert_eq!(c.breaches(), 0);
    }

    #[test]
    fn cross_query_inference_blocked() {
        // Query 1: names. Query 2: diagnoses. Separately harmless; together
        // they complete the private combination — the controller must block
        // the second.
        let mut c = controller();
        let d1 = c.execute("analyst", &Query::select(&["name"]));
        assert!(matches!(d1, QueryDecision::Allowed { .. }));
        let d2 = c.execute("analyst", &Query::select(&["diagnosis"]));
        assert_eq!(d2, QueryDecision::Denied);
        assert_eq!(c.breaches(), 0);
    }

    #[test]
    fn ungated_baseline_breaches() {
        let c = controller();
        let stream = vec![
            ("analyst".to_string(), Query::select(&["name"])),
            ("analyst".to_string(), Query::select(&["diagnosis"])),
        ];
        let breaches = InferenceController::simulate_ungated(
            c.table(),
            "id",
            &[PrivacyConstraint::new(
                &["name", "diagnosis"],
                PrivacyLevel::Private,
            )],
            &stream,
        );
        assert_eq!(breaches, 2); // both patients exposed
    }

    #[test]
    fn histories_are_per_subject() {
        let mut c = controller();
        assert!(matches!(
            c.execute("analyst-1", &Query::select(&["name"])),
            QueryDecision::Allowed { .. }
        ));
        // A different subject can still get diagnoses (their own history is
        // empty).
        assert!(matches!(
            c.execute("analyst-2", &Query::select(&["diagnosis"])),
            QueryDecision::Allowed { .. }
        ));
        // But colluding subjects are out of scope (the paper notes
        // multiparty approaches for that).
    }

    #[test]
    fn selection_columns_count_as_disclosure() {
        // Asking "diagnosis WHERE name = Alice" reveals the pair even
        // though name is not projected.
        let mut c = controller();
        let q = Query::select(&["diagnosis"]).filter("name", "Alice");
        let d = c.execute("analyst", &q);
        assert_eq!(d, QueryDecision::Denied);
    }

    #[test]
    fn semi_private_needs_need_to_know() {
        let mut t = Table::new("patients", &["id", "name", "ward"]);
        t.insert(vec![1i64.into(), "Alice".into(), "w1".into()]);
        let constraints = vec![PrivacyConstraint::new(
            &["name", "ward"],
            PrivacyLevel::SemiPrivate,
        )];
        let mut c = InferenceController::new(t, "id", constraints);
        c.grant_need_to_know("doctor");
        // Doctor gets the combination.
        let d = c.execute("doctor", &Query::select(&["name", "ward"]));
        assert!(matches!(d, QueryDecision::Allowed { .. }));
        // The public does not.
        let d = c.execute("public", &Query::select(&["name", "ward"]));
        assert!(matches!(d, QueryDecision::Sanitized { .. }));
    }

    #[test]
    fn per_individual_tracking() {
        // Releasing Alice's name and Bob's diagnosis does not complete the
        // combination for either individual.
        let mut c = controller();
        let d1 = c.execute("analyst", &Query::select(&["name"]).filter("id", 1i64));
        assert!(matches!(d1, QueryDecision::Allowed { .. }));
        let d2 = c.execute("analyst", &Query::select(&["diagnosis"]).filter("id", 2i64));
        assert!(matches!(d2, QueryDecision::Allowed { .. }));
        // But now Alice's diagnosis must be blocked.
        let d3 = c.execute("analyst", &Query::select(&["diagnosis"]).filter("id", 1i64));
        assert!(
            matches!(d3, QueryDecision::Denied | QueryDecision::Sanitized { .. }),
            "{d3:?}"
        );
        assert_eq!(c.breaches(), 0);
    }

    #[test]
    fn empty_answer_allowed_without_history() {
        let mut c = controller();
        let d = c.execute(
            "analyst",
            &Query::select(&["name", "diagnosis"]).filter("id", 999i64),
        );
        assert!(matches!(d, QueryDecision::Allowed { rows } if rows.is_empty()));
        // No history recorded: the full combination is still available per
        // individual later (nothing was learned).
        let d2 = c.execute("analyst", &Query::select(&["name"]));
        assert!(matches!(d2, QueryDecision::Allowed { .. }));
    }

    #[test]
    #[should_panic(expected = "unknown key column")]
    fn bad_key_column() {
        let t = Table::new("t", &["a"]);
        let _ = InferenceController::new(t, "nope", vec![]);
    }
}

#[cfg(test)]
mod granularity_tests {
    use super::*;

    fn controller(granularity: HistoryGranularity) -> InferenceController {
        let mut t = Table::new("patients", &["id", "name", "diagnosis"]);
        t.insert(vec![1i64.into(), "Alice".into(), "flu".into()]);
        t.insert(vec![2i64.into(), "Bob".into(), "hiv".into()]);
        InferenceController::new(
            t,
            "id",
            vec![PrivacyConstraint::new(
                &["name", "diagnosis"],
                PrivacyLevel::Private,
            )],
        )
        .with_granularity(granularity)
    }

    #[test]
    fn coarse_over_restricts_disjoint_individuals() {
        // Alice's name then Bob's diagnosis: harmless (different people),
        // allowed per-individual but denied under coarse tracking.
        let fine_stream = |c: &mut InferenceController| {
            let d1 = c.execute("a", &Query::select(&["name"]).filter("id", 1i64));
            let d2 = c.execute("a", &Query::select(&["diagnosis"]).filter("id", 2i64));
            (d1, d2)
        };
        let mut fine = controller(HistoryGranularity::PerIndividual);
        let (d1, d2) = fine_stream(&mut fine);
        assert!(matches!(d1, QueryDecision::Allowed { .. }));
        assert!(matches!(d2, QueryDecision::Allowed { .. }), "{d2:?}");

        let mut coarse = controller(HistoryGranularity::Coarse);
        let (d1, d2) = fine_stream(&mut coarse);
        assert!(matches!(d1, QueryDecision::Allowed { .. }));
        assert!(
            matches!(d2, QueryDecision::Denied),
            "coarse tracking must over-restrict: {d2:?}"
        );
    }

    #[test]
    fn coarse_still_prevents_real_inference() {
        let mut coarse = controller(HistoryGranularity::Coarse);
        let d1 = coarse.execute("a", &Query::select(&["name"]));
        assert!(matches!(d1, QueryDecision::Allowed { .. }));
        let d2 = coarse.execute("a", &Query::select(&["diagnosis"]));
        assert_eq!(d2, QueryDecision::Denied);
        assert_eq!(coarse.breaches(), 0);
    }
}
