//! Multilevel security labels with context-dependent classification.
//!
//! §5 of the paper: "under certain contexts, portions of the document may be
//! Unclassified while under certain other context the document may be
//! Classified. As an example, one could declassify an RDF document, once the
//! war is over." Labels here are functions of a [`SecurityContext`], so the
//! same object can carry different effective levels as the context evolves.

use std::collections::BTreeSet;

/// Linear security levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Public information.
    Unclassified,
    /// Limited distribution.
    Confidential,
    /// Serious-damage information.
    Secret,
    /// Grave-damage information.
    TopSecret,
}

impl Level {
    /// All levels, ascending.
    pub const ALL: [Level; 4] = [
        Level::Unclassified,
        Level::Confidential,
        Level::Secret,
        Level::TopSecret,
    ];
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Level::Unclassified => "U",
            Level::Confidential => "C",
            Level::Secret => "S",
            Level::TopSecret => "TS",
        };
        write!(f, "{s}")
    }
}

/// Evaluation context: a logical clock plus named condition flags
/// ("wartime", "emergency", ...).
#[derive(Debug, Clone, Default)]
pub struct SecurityContext {
    /// Monotonic epoch (e.g. days since deployment).
    pub epoch: u64,
    /// Active condition flags.
    pub conditions: BTreeSet<String>,
}

impl SecurityContext {
    /// Creates a context at epoch 0 with no conditions.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the epoch (builder style).
    #[must_use]
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Raises a condition flag (builder style).
    #[must_use]
    pub fn with_condition(mut self, name: &str) -> Self {
        self.conditions.insert(name.to_string());
        self
    }

    /// True when the named condition is active.
    #[must_use]
    pub fn holds(&self, name: &str) -> bool {
        self.conditions.contains(name)
    }
}

/// A context-dependent label: a base level plus downgrade/upgrade rules.
#[derive(Debug, Clone)]
pub struct ContextLabel {
    /// Level when no rule fires.
    pub base: Level,
    rules: Vec<LabelRule>,
}

#[derive(Debug, Clone)]
enum LabelRule {
    /// After `epoch`, the label becomes `level` (automatic declassification).
    AfterEpoch(u64, Level),
    /// While condition is active, the label is `level` (e.g. wartime
    /// upgrade).
    WhileCondition(String, Level),
    /// While condition is *inactive*, the label is `level` (e.g. "once the
    /// war is over" declassification).
    UnlessCondition(String, Level),
}

impl ContextLabel {
    /// A constant label.
    #[must_use]
    pub fn fixed(level: Level) -> Self {
        ContextLabel {
            base: level,
            rules: Vec::new(),
        }
    }

    /// Adds automatic declassification (or any relabeling) after `epoch`.
    #[must_use]
    pub fn after_epoch(mut self, epoch: u64, level: Level) -> Self {
        self.rules.push(LabelRule::AfterEpoch(epoch, level));
        self
    }

    /// Adds a relabeling active while `condition` holds.
    #[must_use]
    pub fn while_condition(mut self, condition: &str, level: Level) -> Self {
        self.rules
            .push(LabelRule::WhileCondition(condition.to_string(), level));
        self
    }

    /// Adds a relabeling active while `condition` does **not** hold.
    #[must_use]
    pub fn unless_condition(mut self, condition: &str, level: Level) -> Self {
        self.rules
            .push(LabelRule::UnlessCondition(condition.to_string(), level));
        self
    }

    /// Condition names referenced by any rule of this label, sorted and
    /// deduplicated. Static analysis uses these to enumerate the contexts
    /// under which the effective level can change.
    #[must_use]
    pub fn conditions(&self) -> BTreeSet<String> {
        self.rules
            .iter()
            .filter_map(|r| match r {
                LabelRule::AfterEpoch(..) => None,
                LabelRule::WhileCondition(c, _) | LabelRule::UnlessCondition(c, _) => {
                    Some(c.clone())
                }
            })
            .collect()
    }

    /// Epochs at which an `AfterEpoch` rule starts firing, sorted and
    /// deduplicated. Together with epoch 0 these are the only epochs at
    /// which the effective level can change (for a fixed condition set).
    #[must_use]
    pub fn epoch_breakpoints(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> = self
            .rules
            .iter()
            .filter_map(|r| match r {
                LabelRule::AfterEpoch(e, _) => Some(*e),
                _ => None,
            })
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }

    /// Number of context-dependent rules attached to this label.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The effective level in `context`. When several rules fire, the
    /// *highest* resulting level wins (fail-secure); when none fire, the
    /// base level applies.
    #[must_use]
    pub fn effective(&self, context: &SecurityContext) -> Level {
        let mut fired: Vec<Level> = self
            .rules
            .iter()
            .filter_map(|r| match r {
                LabelRule::AfterEpoch(e, l) => (context.epoch >= *e).then_some(*l),
                LabelRule::WhileCondition(c, l) => context.holds(c).then_some(*l),
                LabelRule::UnlessCondition(c, l) => (!context.holds(c)).then_some(*l),
            })
            .collect();
        if fired.is_empty() {
            self.base
        } else {
            fired.sort_unstable();
            *fired.last().expect("non-empty")
        }
    }
}

/// A subject clearance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clearance(pub Level);

impl Clearance {
    /// Simple-security property (no read up): the subject may read objects
    /// whose effective level is dominated by the clearance.
    #[must_use]
    pub fn can_read(&self, label: &ContextLabel, context: &SecurityContext) -> bool {
        label.effective(context) <= self.0
    }

    /// ⋆-property (no write down): the subject may write objects whose
    /// effective level dominates the clearance.
    #[must_use]
    pub fn can_write(&self, label: &ContextLabel, context: &SecurityContext) -> bool {
        label.effective(context) >= self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering() {
        assert!(Level::Unclassified < Level::Confidential);
        assert!(Level::Confidential < Level::Secret);
        assert!(Level::Secret < Level::TopSecret);
    }

    #[test]
    fn fixed_label() {
        let l = ContextLabel::fixed(Level::Secret);
        assert_eq!(l.effective(&SecurityContext::new()), Level::Secret);
    }

    #[test]
    fn epoch_declassification() {
        // Classified until epoch 100, then public.
        let l = ContextLabel::fixed(Level::Secret).after_epoch(100, Level::Unclassified);
        assert_eq!(
            l.effective(&SecurityContext::new().at_epoch(99)),
            Level::Secret
        );
        assert_eq!(
            l.effective(&SecurityContext::new().at_epoch(100)),
            Level::Unclassified
        );
    }

    #[test]
    fn war_over_declassification() {
        // The paper's example: declassify once the war is over.
        let l = ContextLabel::fixed(Level::Secret).unless_condition("wartime", Level::Unclassified);
        let war = SecurityContext::new().with_condition("wartime");
        let peace = SecurityContext::new();
        assert_eq!(l.effective(&war), Level::Secret);
        assert_eq!(l.effective(&peace), Level::Unclassified);
    }

    #[test]
    fn emergency_upgrade() {
        let l =
            ContextLabel::fixed(Level::Unclassified).while_condition("emergency", Level::Secret);
        assert_eq!(l.effective(&SecurityContext::new()), Level::Unclassified);
        assert_eq!(
            l.effective(&SecurityContext::new().with_condition("emergency")),
            Level::Secret
        );
    }

    #[test]
    fn conflicting_rules_fail_secure() {
        // One rule says U, another says S: the higher level wins.
        let l = ContextLabel::fixed(Level::Confidential)
            .after_epoch(10, Level::Unclassified)
            .while_condition("audit", Level::Secret);
        let ctx = SecurityContext::new().at_epoch(20).with_condition("audit");
        assert_eq!(l.effective(&ctx), Level::Secret);
    }

    #[test]
    fn clearance_read_write() {
        let secret_obj = ContextLabel::fixed(Level::Secret);
        let ctx = SecurityContext::new();
        let analyst = Clearance(Level::Secret);
        let public = Clearance(Level::Unclassified);
        // No read up.
        assert!(analyst.can_read(&secret_obj, &ctx));
        assert!(!public.can_read(&secret_obj, &ctx));
        // No write down.
        assert!(!analyst.can_write(&ContextLabel::fixed(Level::Unclassified), &ctx));
        assert!(public.can_write(&secret_obj, &ctx));
    }

    #[test]
    fn declassification_changes_readability() {
        let obj =
            ContextLabel::fixed(Level::Secret).unless_condition("wartime", Level::Unclassified);
        let public = Clearance(Level::Unclassified);
        let war = SecurityContext::new().with_condition("wartime");
        let peace = SecurityContext::new();
        assert!(!public.can_read(&obj, &war));
        assert!(public.can_read(&obj, &peace));
    }
}
