//! Web transaction models (§2.1 of the paper).
//!
//! "There may be new kinds of transactions for web data management. For
//! example, various items may be sold through the Internet. In this case,
//! the item should not be locked immediately when a potential buyer makes a
//! bid. It has to be left open until several bids are received and the item
//! is sold. That is, special transaction models are needed. Appropriate
//! concurrency control and recovery techniques have to be developed."
//!
//! Two models over a versioned document store:
//!
//! * [`VersionedStore`] — optimistic concurrency for ordinary updates:
//!   readers never block, writers validate the version they read and abort
//!   on conflict (first-committer-wins).
//! * [`Auction`] — the paper's open-bid model: bids accumulate without
//!   locking the item; closing the auction atomically selects the winner
//!   and rejects late bids.

use crate::node::Document;
use std::collections::BTreeMap;

/// A monotonically growing document version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Version(pub u64);

/// Errors from the optimistic store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The document does not exist.
    UnknownDocument(String),
    /// The writer's base version is stale: someone committed in between.
    WriteConflict {
        /// Version the writer read.
        read: Version,
        /// Version currently committed.
        current: Version,
    },
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::UnknownDocument(d) => write!(f, "unknown document '{d}'"),
            TxnError::WriteConflict { read, current } => write!(
                f,
                "write conflict: read version {} but current is {}",
                read.0, current.0
            ),
        }
    }
}

impl std::error::Error for TxnError {}

/// A versioned document store with optimistic concurrency control.
#[derive(Default)]
pub struct VersionedStore {
    docs: BTreeMap<String, (Version, Document)>,
    /// Commit log for recovery-style inspection: (name, version) pairs in
    /// commit order.
    log: Vec<(String, Version)>,
}

impl VersionedStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a new document at version 1 (overwrites bump the version).
    pub fn put(&mut self, name: &str, doc: Document) -> Version {
        let next = match self.docs.get(name) {
            Some((v, _)) => Version(v.0 + 1),
            None => Version(1),
        };
        self.docs.insert(name.to_string(), (next, doc));
        self.log.push((name.to_string(), next));
        next
    }

    /// Snapshot read: the current version and a clone of the document.
    pub fn read(&self, name: &str) -> Result<(Version, Document), TxnError> {
        self.docs
            .get(name)
            .map(|(v, d)| (*v, d.clone()))
            .ok_or_else(|| TxnError::UnknownDocument(name.to_string()))
    }

    /// Optimistic commit: succeeds only if nobody committed since the
    /// writer's `read_version` (first-committer-wins validation).
    pub fn commit(
        &mut self,
        name: &str,
        read_version: Version,
        doc: Document,
    ) -> Result<Version, TxnError> {
        let (current, _) = self
            .docs
            .get(name)
            .ok_or_else(|| TxnError::UnknownDocument(name.to_string()))?;
        if *current != read_version {
            return Err(TxnError::WriteConflict {
                read: read_version,
                current: *current,
            });
        }
        Ok(self.put(name, doc))
    }

    /// The commit log (name, version), oldest first.
    #[must_use]
    pub fn log(&self) -> &[(String, Version)] {
        &self.log
    }
}

/// A submitted bid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bid {
    /// Bidder identity.
    pub bidder: String,
    /// Bid amount (integer currency units).
    pub amount: u64,
}

/// Auction lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuctionState {
    /// Bids are being accepted; the item is **not** locked.
    Open,
    /// Closed with a winner.
    Sold {
        /// The winning bid.
        winner: Bid,
    },
    /// Closed without a valid bid.
    Unsold,
}

/// Errors from the auction model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuctionError {
    /// Bid arrived after the auction closed.
    Closed,
    /// Bid below the reserve price.
    BelowReserve {
        /// The configured reserve.
        reserve: u64,
    },
}

impl std::fmt::Display for AuctionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuctionError::Closed => write!(f, "auction is closed"),
            AuctionError::BelowReserve { reserve } => {
                write!(f, "bid below reserve price {reserve}")
            }
        }
    }
}

impl std::error::Error for AuctionError {}

/// The paper's open-bid transaction: no lock while bids accumulate; a
/// single atomic close decides the outcome.
#[derive(Debug)]
pub struct Auction {
    /// Item being sold (document name in the catalogue).
    pub item: String,
    reserve: u64,
    bids: Vec<Bid>,
    state: AuctionState,
}

impl Auction {
    /// Opens an auction for `item` with a reserve price.
    #[must_use]
    pub fn open(item: &str, reserve: u64) -> Self {
        Auction {
            item: item.to_string(),
            reserve,
            bids: Vec::new(),
            state: AuctionState::Open,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> &AuctionState {
        &self.state
    }

    /// Bids received so far (all retained for audit, including losing ones).
    #[must_use]
    pub fn bids(&self) -> &[Bid] {
        &self.bids
    }

    /// Submits a bid. The item is *not* locked: concurrent bids all
    /// accumulate; only reserve and state are checked.
    pub fn place_bid(&mut self, bidder: &str, amount: u64) -> Result<(), AuctionError> {
        if !matches!(self.state, AuctionState::Open) {
            return Err(AuctionError::Closed);
        }
        if amount < self.reserve {
            return Err(AuctionError::BelowReserve {
                reserve: self.reserve,
            });
        }
        self.bids.push(Bid {
            bidder: bidder.to_string(),
            amount,
        });
        Ok(())
    }

    /// Atomically closes the auction: the highest bid wins (earliest wins
    /// ties, rewarding the first committer); late bids are rejected from
    /// now on. Returns the final state.
    pub fn close(&mut self) -> &AuctionState {
        if matches!(self.state, AuctionState::Open) {
            self.state = match self
                .bids
                .iter()
                .enumerate()
                // max_by_key returns the *last* max; invert index to prefer
                // the earliest among equal amounts.
                .max_by_key(|(i, b)| (b.amount, std::cmp::Reverse(*i)))
            {
                Some((_, best)) => AuctionState::Sold {
                    winner: best.clone(),
                },
                None => AuctionState::Unsold,
            };
        }
        &self.state
    }

    /// Writes the outcome into the item's catalogue document (the `status`
    /// attribute on the root), committing through the optimistic store.
    pub fn record_outcome(&self, store: &mut VersionedStore) -> Result<Version, TxnError> {
        let (version, mut doc) = store.read(&self.item)?;
        let root = doc.root();
        match &self.state {
            AuctionState::Open => doc.set_attribute(root, "status", "open"),
            AuctionState::Unsold => doc.set_attribute(root, "status", "unsold"),
            AuctionState::Sold { winner } => {
                doc.set_attribute(root, "status", "sold");
                doc.set_attribute(root, "buyer", &winner.bidder);
                doc.set_attribute(root, "price", &winner.amount.to_string());
            }
        }
        store.commit(&self.item, version, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item_doc() -> Document {
        Document::parse("<item sku=\"lamp-1\"><title>Antique lamp</title></item>").unwrap()
    }

    #[test]
    fn optimistic_read_commit() {
        let mut store = VersionedStore::new();
        let v1 = store.put("item.xml", item_doc());
        assert_eq!(v1, Version(1));
        let (v, mut doc) = store.read("item.xml").unwrap();
        doc.set_attribute(doc.root(), "viewed", "1");
        let v2 = store.commit("item.xml", v, doc).unwrap();
        assert_eq!(v2, Version(2));
    }

    #[test]
    fn first_committer_wins() {
        let mut store = VersionedStore::new();
        store.put("item.xml", item_doc());
        // Two writers read the same version.
        let (v_a, mut doc_a) = store.read("item.xml").unwrap();
        let (v_b, mut doc_b) = store.read("item.xml").unwrap();
        doc_a.set_attribute(doc_a.root(), "editor", "a");
        doc_b.set_attribute(doc_b.root(), "editor", "b");
        // A commits first.
        store.commit("item.xml", v_a, doc_a).unwrap();
        // B's commit conflicts.
        let err = store.commit("item.xml", v_b, doc_b).unwrap_err();
        assert!(matches!(err, TxnError::WriteConflict { .. }));
        // B retries from the fresh snapshot and succeeds.
        let (v, mut doc) = store.read("item.xml").unwrap();
        doc.set_attribute(doc.root(), "editor", "b");
        store.commit("item.xml", v, doc).unwrap();
        assert_eq!(
            store
                .read("item.xml")
                .unwrap()
                .1
                .attribute(store.read("item.xml").unwrap().1.root(), "editor"),
            Some("b")
        );
    }

    #[test]
    fn unknown_document_errors() {
        let mut store = VersionedStore::new();
        assert!(matches!(
            store.read("nope"),
            Err(TxnError::UnknownDocument(_))
        ));
        assert!(matches!(
            store.commit("nope", Version(1), item_doc()),
            Err(TxnError::UnknownDocument(_))
        ));
    }

    #[test]
    fn commit_log_orders_versions() {
        let mut store = VersionedStore::new();
        store.put("a.xml", item_doc());
        store.put("b.xml", item_doc());
        let (v, d) = store.read("a.xml").unwrap();
        store.commit("a.xml", v, d).unwrap();
        let log = store.log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[2], ("a.xml".to_string(), Version(2)));
    }

    #[test]
    fn bids_accumulate_without_locking() {
        let mut auction = Auction::open("item.xml", 100);
        // Several "concurrent" bidders all succeed — no lock on the item.
        auction.place_bid("alice", 120).unwrap();
        auction.place_bid("bob", 150).unwrap();
        auction.place_bid("carol", 130).unwrap();
        assert_eq!(auction.bids().len(), 3);
        assert_eq!(auction.state(), &AuctionState::Open);
    }

    #[test]
    fn reserve_enforced() {
        let mut auction = Auction::open("item.xml", 100);
        assert_eq!(
            auction.place_bid("cheapskate", 50).unwrap_err(),
            AuctionError::BelowReserve { reserve: 100 }
        );
    }

    #[test]
    fn close_picks_highest() {
        let mut auction = Auction::open("item.xml", 100);
        auction.place_bid("alice", 120).unwrap();
        auction.place_bid("bob", 150).unwrap();
        match auction.close() {
            AuctionState::Sold { winner } => {
                assert_eq!(winner.bidder, "bob");
                assert_eq!(winner.amount, 150);
            }
            other => panic!("expected sold, got {other:?}"),
        }
    }

    #[test]
    fn tie_goes_to_earliest() {
        let mut auction = Auction::open("item.xml", 100);
        auction.place_bid("early", 150).unwrap();
        auction.place_bid("late", 150).unwrap();
        match auction.close() {
            AuctionState::Sold { winner } => assert_eq!(winner.bidder, "early"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn late_bids_rejected() {
        let mut auction = Auction::open("item.xml", 100);
        auction.place_bid("alice", 120).unwrap();
        auction.close();
        assert_eq!(
            auction.place_bid("latecomer", 500).unwrap_err(),
            AuctionError::Closed
        );
        // Closing again is idempotent.
        assert!(matches!(auction.close(), AuctionState::Sold { .. }));
    }

    #[test]
    fn no_bids_means_unsold() {
        let mut auction = Auction::open("item.xml", 100);
        assert_eq!(auction.close(), &AuctionState::Unsold);
    }

    #[test]
    fn outcome_recorded_through_optimistic_store() {
        let mut store = VersionedStore::new();
        store.put("item.xml", item_doc());
        let mut auction = Auction::open("item.xml", 100);
        auction.place_bid("alice", 175).unwrap();
        auction.close();
        auction.record_outcome(&mut store).unwrap();
        let (_, doc) = store.read("item.xml").unwrap();
        assert_eq!(doc.attribute(doc.root(), "status"), Some("sold"));
        assert_eq!(doc.attribute(doc.root(), "buyer"), Some("alice"));
        assert_eq!(doc.attribute(doc.root(), "price"), Some("175"));
    }
}
