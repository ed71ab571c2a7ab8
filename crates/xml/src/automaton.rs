//! Compiled path matching for the policy hot path: an element-name
//! interner, node-id bitsets, and path → automaton compilation.
//!
//! The policy layer compiles a snapshot's path expressions once at
//! publication time ([`PathAutomaton::compile`]) so that evaluating a
//! portion selector on the serving hot path is a single pre-order walk
//! with small bitmask transitions over **interned** element names —
//! no string comparisons and no per-step candidate vectors. The
//! automaton deliberately refuses ([`PathAutomaton::compile`] returns
//! `None`) any construct whose semantics depend on sibling grouping
//! (positional predicates) or on the attribute axis; callers fall back
//! to [`Path::select`], so compilation is a pure fast path and the
//! interpreter remains the semantic oracle. `automaton ≡ select`
//! equivalence is pinned by the tests at the bottom of this module,
//! the same discipline `IndexedDocument` uses for its name-index fast
//! path.

use crate::node::{Document, NodeId};
use crate::path::{Path, Pred, Step, Test};
use std::collections::BTreeMap;

/// A string interner for element names (the `FlowGraph` interner idiom:
/// a `BTreeMap` handing out dense indices, plus the reverse table).
///
/// Interning is stable: the same name always maps to the same symbol,
/// and symbols are dense indices usable for array lookups.
#[derive(Debug, Clone, Default)]
pub struct NameInterner {
    map: BTreeMap<String, u32>,
    names: Vec<String>,
}

impl NameInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable symbol.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = u32::try_from(self.names.len()).expect("interner overflow");
        self.map.insert(name.to_owned(), sym);
        self.names.push(name.to_owned());
        sym
    }

    /// Looks up a name without interning it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u32> {
        self.map.get(name).copied()
    }

    /// The name behind a symbol.
    ///
    /// # Panics
    /// Panics when `sym` was never handed out by this interner.
    #[must_use]
    pub fn resolve(&self, sym: u32) -> &str {
        &self.names[sym as usize]
    }

    /// Number of interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Pre-resolves every node of `doc` to its interned element-name
    /// symbol (`None` for text nodes and for names this interner has
    /// never seen). Indexed by [`NodeId::index`]; computed once per
    /// document so automaton runs do no map lookups at all.
    #[must_use]
    pub fn document_symbols(&self, doc: &Document) -> Vec<Option<u32>> {
        let mut syms = Vec::with_capacity(doc.arena_len());
        for i in 0..doc.arena_len() {
            let node = NodeId(u32::try_from(i).expect("document too large"));
            syms.push(doc.name(node).and_then(|n| self.get(n)));
        }
        syms
    }
}

/// A dense bitset over the [`NodeId`]s of one document — the
/// representation the compiled decision tables use for "set of allowed
/// nodes" so membership checks on the hot path are one shift and mask.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeBitset {
    words: Vec<u64>,
}

impl NodeBitset {
    /// Creates an empty bitset sized for a document of `nodes` arena
    /// slots.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        NodeBitset {
            words: Vec::with_capacity(nodes.div_ceil(64)),
        }
    }

    /// Inserts `node`.
    pub fn insert(&mut self, node: NodeId) {
        let idx = node.index();
        let word = idx / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (idx % 64);
    }

    /// True when `node` is a member.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let idx = node.index();
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no node is a member.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in ascending [`NodeId`] order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let idx = wi as u64 * 64 + u64::from(bit);
                Some(NodeId(u32::try_from(idx).expect("bitset overflow")))
            })
        })
    }
}

impl FromIterator<NodeId> for NodeBitset {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut set = NodeBitset::default();
        for n in iter {
            set.insert(n);
        }
        set
    }
}

/// One compiled step: the interned name test plus the content
/// predicates the original step carried.
#[derive(Debug, Clone)]
struct AutoStep {
    descendant: bool,
    test: AutoTest,
    preds: Vec<AutoPred>,
}

#[derive(Debug, Clone)]
enum AutoTest {
    /// The element name must resolve to exactly this symbol.
    Name(u32),
    /// Any element (`*`).
    Wildcard,
}

/// An equality predicate a step checks on the node it matches.
#[derive(Debug, Clone)]
enum AutoPred {
    /// `[@attr='value']`.
    Attr(String, String),
    /// `[child='value']`.
    ChildText(String, String),
    /// `[text()='value']`.
    OwnText(String),
}

/// A path expression compiled to an NFA over interned element names.
///
/// States are "number of steps consumed along the ancestor chain"; one
/// pre-order walk carries a ≤64-bit state mask per tree path, so
/// matching costs O(nodes × states) bit operations and prunes whole
/// subtrees the moment the mask goes empty. Produced once per unique
/// path at snapshot-compilation time.
#[derive(Debug, Clone)]
pub struct PathAutomaton {
    steps: Vec<AutoStep>,
}

impl PathAutomaton {
    /// Compiles `path`, interning its element names. Returns `None`
    /// for constructs the automaton cannot reproduce exactly —
    /// attribute-axis steps and positional predicates — in which case
    /// the caller must evaluate via [`Path::select`].
    #[must_use]
    pub fn compile(path: &Path, interner: &mut NameInterner) -> Option<PathAutomaton> {
        let raw: &[Step] = path.steps();
        // State masks live in a u64; one state per step plus the start.
        if raw.len() > 63 {
            return None;
        }
        let mut steps = Vec::with_capacity(raw.len());
        for step in raw {
            let test = match &step.test {
                Test::Name(name) => AutoTest::Name(interner.intern(name)),
                Test::Wildcard => AutoTest::Wildcard,
                Test::Attribute(_) => return None,
            };
            let mut preds = Vec::with_capacity(step.predicates.len());
            for pred in &step.predicates {
                preds.push(match pred {
                    Pred::AttrEq(a, v) => AutoPred::Attr(a.clone(), v.clone()),
                    Pred::ChildTextEq(c, v) => AutoPred::ChildText(c.clone(), v.clone()),
                    Pred::OwnTextEq(v) => AutoPred::OwnText(v.clone()),
                    Pred::Position(_) => return None,
                });
            }
            steps.push(AutoStep {
                descendant: step.descendant,
                test,
                preds,
            });
        }
        Some(PathAutomaton { steps })
    }

    /// Number of automaton states (steps).
    #[must_use]
    pub fn states(&self) -> usize {
        self.steps.len()
    }

    fn node_matches(
        &self,
        step: &AutoStep,
        doc: &Document,
        node: NodeId,
        sym: Option<u32>,
    ) -> bool {
        let name_ok = match step.test {
            AutoTest::Name(want) => sym == Some(want),
            AutoTest::Wildcard => doc.name(node).is_some(),
        };
        if !name_ok {
            return false;
        }
        step.preds.iter().all(|p| match p {
            AutoPred::Attr(a, want) => doc.attribute(node, a) == Some(want.as_str()),
            AutoPred::OwnText(want) => &doc.text_content(node) == want,
            AutoPred::ChildText(child, want) => doc
                .children(node)
                .any(|c| doc.name(c) == Some(child.as_str()) && &doc.text_content(c) == want),
        })
    }

    /// Runs the automaton over `doc`, whose nodes were pre-resolved by
    /// [`NameInterner::document_symbols`]. Returns the selected nodes
    /// sorted ascending — byte-for-byte what
    /// `path.select(doc) == Selection::Nodes(..)` yields, pinned by the
    /// equivalence tests below.
    #[must_use]
    pub fn select_nodes(&self, doc: &Document, syms: &[Option<u32>]) -> Vec<NodeId> {
        let accept = 1u64 << self.steps.len();
        let mut out = Vec::with_capacity(8);
        // DFS over (node, parent-state-mask). State 0 is the virtual
        // node above the root, so `/a` matches a root named `a` and a
        // leading `//a` matches every `a` including the root, unless
        // pruning removed the root (a view that keeps nothing).
        let mut stack = Vec::with_capacity(16);
        if !doc.is_removed(doc.root()) {
            stack.push((doc.root(), 1u64));
        }
        while let Some((node, parent_mask)) = stack.pop() {
            let mut mask = 0u64;
            let mut remaining = parent_mask;
            while remaining != 0 {
                let s = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                if s >= self.steps.len() {
                    // A fully-consumed state selects its node and stops:
                    // selection does not implicitly extend to children.
                    continue;
                }
                let step = &self.steps[s];
                if step.descendant {
                    // `//` keeps looking deeper; `/` must fire exactly
                    // at this level or die. Mid-path `//` excludes the
                    // context node itself because the persisted state
                    // was added to the *parent's* mask, never consumed
                    // against the node that produced it.
                    mask |= 1u64 << s;
                }
                if self.node_matches(step, doc, node, syms[node.index()]) {
                    mask |= 1u64 << (s + 1);
                }
            }
            if mask == 0 {
                continue;
            }
            if mask & accept != 0 {
                out.push(node);
            }
            for child in doc.children(node) {
                stack.push((child, mask));
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Selection;
    use std::collections::HashMap;

    fn doc() -> Document {
        Document::parse(
            "<hospital>\
               <patient id=\"p1\" ward=\"w1\"><name>Alice</name><record severity=\"low\">flu</record></patient>\
               <patient id=\"p2\" ward=\"w2\"><name>Bob</name><record severity=\"high\">injury</record></patient>\
               <staff><doctor id=\"d1\"><name>Carol</name></doctor></staff>\
             </hospital>",
        )
        .unwrap()
    }

    fn assert_equiv(src: &str, d: &Document) {
        let path = Path::parse(src).unwrap();
        let mut interner = NameInterner::new();
        let auto = PathAutomaton::compile(&path, &mut interner)
            .unwrap_or_else(|| panic!("{src} should compile"));
        let syms = interner.document_symbols(d);
        let got = auto.select_nodes(d, &syms);
        assert!(got.iter().all(|&n| !d.is_removed(n)), "{src}: {got:?}");
        match path.select(d) {
            Selection::Nodes(want) => assert_eq!(got, want, "{src}"),
            Selection::Attributes(_) => panic!("{src} selected attributes"),
        }
    }

    #[test]
    fn automaton_matches_interpreter_on_element_paths() {
        let d = doc();
        // A view that keeps nothing: pruning removes even the root.
        let empty = d.prune_to_view(&NodeBitset::default(), &HashMap::new());
        for src in [
            "/hospital",
            "/hospital/patient",
            "/hospital/patient/name",
            "/hospital/*",
            "//name",
            "//patient//name",
            "/hospital//name",
            "//record",
            "/hospital/patient[@id='p2']/name",
            "//patient[name='Alice']",
            "//record[text()='injury']",
            "//record[@severity='high'][text()='injury']",
            "//missing",
            "/clinic",
            "/hospital/patient[@id='zzz']",
            "//*",
            "/*/staff/doctor",
        ] {
            assert_equiv(src, &d);
            assert_equiv(src, &empty);
        }
    }

    #[test]
    fn mid_path_descendant_excludes_self() {
        let d = Document::parse("<a><a><b/></a></a>").unwrap();
        assert_equiv("//a", &d);
        assert_equiv("/a//a", &d);
        assert_equiv("/a//b", &d);
        assert_equiv("//a//b", &d);
    }

    #[test]
    fn unsupported_constructs_refuse_compilation() {
        let mut interner = NameInterner::new();
        for src in ["//patient/@id", "/hospital/patient[1]", "/a/@x"] {
            let path = Path::parse(src).unwrap();
            assert!(
                PathAutomaton::compile(&path, &mut interner).is_none(),
                "{src} must fall back to the interpreter"
            );
        }
    }

    #[test]
    fn unknown_names_never_match_without_false_positives() {
        // The interner only knows names from compiled paths; document
        // names it never saw resolve to None and must simply not match.
        let d = doc();
        let path = Path::parse("//doctor").unwrap();
        let mut interner = NameInterner::new();
        let auto = PathAutomaton::compile(&path, &mut interner).unwrap();
        let syms = interner.document_symbols(&d);
        assert_eq!(auto.select_nodes(&d, &syms).len(), 1);
        assert_eq!(interner.len(), 1, "only 'doctor' interned");
    }

    #[test]
    fn interner_is_stable() {
        let mut i = NameInterner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.get("gamma"), None);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn bitset_roundtrip() {
        let d = doc();
        let all = d.all_nodes();
        let set: NodeBitset = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
        for &n in &all {
            assert!(set.contains(n));
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
        let empty = NodeBitset::with_capacity(100);
        assert!(empty.is_empty());
        assert!(!empty.contains(d.root()));
    }

    #[test]
    fn bitset_spans_word_boundaries() {
        let mut set = NodeBitset::default();
        for idx in [0u32, 63, 64, 65, 127, 128, 300] {
            set.insert(NodeId(idx));
        }
        assert_eq!(set.len(), 7);
        assert!(set.contains(NodeId(65)));
        assert!(!set.contains(NodeId(66)));
        assert_eq!(
            set.iter().map(NodeId::index).collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 300]
        );
    }
}
