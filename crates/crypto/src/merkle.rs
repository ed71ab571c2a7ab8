//! Merkle hash trees with single- and multi-leaf proofs.
//!
//! This is the authentication core of the paper's third-party architectures:
//! the owner (service provider) signs only the tree **root** (the "summary
//! signature"), and the untrusted publisher / discovery agency accompanies
//! each query answer with the sibling hashes ("additional hash values,
//! referring to the missing portions") that let the requestor recompute the
//! root locally and compare it with the signed value.
//!
//! Leaves and interior nodes are domain-separated (`0x00` / `0x01` prefixes)
//! so a leaf can never be confused with an interior node, and padding leaves
//! (`0x02`) can never be confused with real data. Trees are padded to a
//! power of two, which keeps the multi-proof recursion aligned with leaf
//! ranges.

use crate::sha256::{Digest, Sha256};

/// Hashes raw leaf data with the leaf domain-separation prefix.
#[must_use]
pub fn leaf_hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

fn padding_hash() -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x02]);
    h.finalize()
}

/// A Merkle tree over a sequence of leaves.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// Number of real (non-padding) leaves.
    n_leaves: usize,
    /// `levels[0]` is the padded leaf layer; the last level holds the root.
    levels: Vec<Vec<Digest>>,
}

/// Inclusion proof for a single leaf: the sibling hash on each level from
/// leaf to root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Number of real leaves in the tree (binds the proof to the tree shape).
    pub n_leaves: usize,
    /// Sibling hashes, leaf level first.
    pub siblings: Vec<Digest>,
}

/// Proof for a subset of leaves: the minimal set of subtree hashes covering
/// everything *outside* the subset, in DFS order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiProof {
    /// Number of real leaves in the tree.
    pub n_leaves: usize,
    /// Sorted indices of the leaves the verifier holds.
    pub indices: Vec<usize>,
    /// Covering subtree hashes in DFS (left-to-right, top-down) order.
    pub hashes: Vec<Digest>,
}

impl MerkleTree {
    /// Builds a tree over raw leaf payloads.
    #[must_use]
    pub fn from_data<T: AsRef<[u8]>>(items: &[T]) -> Self {
        let leaves: Vec<Digest> = items.iter().map(|d| leaf_hash(d.as_ref())).collect();
        Self::from_leaf_hashes(leaves)
    }

    /// Builds a tree over pre-hashed leaves.
    ///
    /// An empty input produces a single padding leaf so that every tree has
    /// a well-defined root.
    #[must_use]
    pub fn from_leaf_hashes(mut leaves: Vec<Digest>) -> Self {
        let n_leaves = leaves.len();
        let width = leaves.len().max(1).next_power_of_two();
        leaves.resize(width, padding_hash());

        let mut levels = vec![leaves];
        while levels.last().expect("at least leaf level").len() > 1 {
            let prev = levels.last().expect("non-empty levels");
            let next: Vec<Digest> = prev
                .chunks_exact(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        MerkleTree { n_leaves, levels }
    }

    /// Root digest committing to all leaves.
    #[must_use]
    pub fn root(&self) -> Digest {
        self.levels.last().expect("root level")[0]
    }

    /// Number of real leaves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_leaves
    }

    /// True when the tree was built from zero leaves.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_leaves == 0
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.n_leaves, "leaf index out of bounds");
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            siblings.push(level[idx ^ 1]);
            idx >>= 1;
        }
        MerkleProof {
            leaf_index: index,
            n_leaves: self.n_leaves,
            siblings,
        }
    }

    /// Produces a multi-leaf proof for the given (deduplicated, sorted)
    /// subset of leaf indices.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn prove_multi(&self, indices: &[usize]) -> MultiProof {
        let mut idx: Vec<usize> = indices.to_vec();
        idx.sort_unstable();
        idx.dedup();
        for &i in &idx {
            assert!(i < self.n_leaves, "leaf index {i} out of bounds");
        }
        let mut hashes = Vec::new();
        let height = self.levels.len() - 1;
        self.cover(height, 0, &idx, &mut hashes);
        MultiProof {
            n_leaves: self.n_leaves,
            indices: idx,
            hashes,
        }
    }

    /// DFS over node `(level, pos)`; emits the node hash when its leaf range
    /// contains none of the requested indices, otherwise recurses.
    fn cover(&self, level: usize, pos: usize, indices: &[usize], out: &mut Vec<Digest>) {
        let lo = pos << level;
        let hi = (pos + 1) << level;
        let any = indices.iter().any(|&i| i >= lo && i < hi);
        if !any {
            out.push(self.levels[level][pos]);
            return;
        }
        if level == 0 {
            // Requested leaf: the verifier supplies it, nothing to emit.
            return;
        }
        self.cover(level - 1, pos * 2, indices, out);
        self.cover(level - 1, pos * 2 + 1, indices, out);
    }
}

/// Verifies a single-leaf proof against `root` using the raw leaf payload.
#[must_use]
pub fn verify(root: &Digest, leaf_data: &[u8], proof: &MerkleProof) -> bool {
    verify_hash(root, &leaf_hash(leaf_data), proof)
}

/// Tree height for `n_leaves` real leaves (the padded width's log₂), or
/// `None` when the padded width does not fit a `usize`: no such tree
/// exists, so no proof for one verifies.
fn height(n_leaves: usize) -> Option<usize> {
    let width = n_leaves.max(1).checked_next_power_of_two()?;
    Some(width.trailing_zeros() as usize)
}

/// Verifies a single-leaf proof against `root` using a pre-hashed leaf.
/// A proof of any shape — any sibling count, any `n_leaves` — is answered
/// `false` or `true`, never a panic.
#[must_use]
pub fn verify_hash(root: &Digest, leaf: &Digest, proof: &MerkleProof) -> bool {
    if proof.leaf_index >= proof.n_leaves {
        return false;
    }
    if height(proof.n_leaves) != Some(proof.siblings.len()) {
        return false;
    }
    let mut acc = *leaf;
    let mut idx = proof.leaf_index;
    for sib in &proof.siblings {
        acc = if idx & 1 == 0 {
            node_hash(&acc, sib)
        } else {
            node_hash(sib, &acc)
        };
        idx >>= 1;
    }
    crate::ct_eq(&acc, root)
}

impl MultiProof {
    /// Verifies that `leaves` (pre-hashed, aligned with `self.indices`)
    /// are exactly the claimed leaves of the tree with digest `root`.
    #[must_use]
    pub fn verify(&self, root: &Digest, leaves: &[Digest]) -> bool {
        if leaves.len() != self.indices.len() {
            return false;
        }
        if self.indices.windows(2).any(|w| w[0] >= w[1]) {
            return false; // must be sorted and deduplicated
        }
        if self.indices.iter().any(|&i| i >= self.n_leaves) {
            return false;
        }
        let Some(height) = height(self.n_leaves) else {
            return false;
        };
        let mut hash_pos = 0usize;
        let mut leaf_pos = 0usize;
        let computed = self.recompute(height, 0, leaves, &mut hash_pos, &mut leaf_pos);
        match computed {
            Some(h) => {
                hash_pos == self.hashes.len() && leaf_pos == leaves.len() && crate::ct_eq(&h, root)
            }
            None => false,
        }
    }

    fn recompute(
        &self,
        level: usize,
        pos: usize,
        leaves: &[Digest],
        hash_pos: &mut usize,
        leaf_pos: &mut usize,
    ) -> Option<Digest> {
        let lo = pos << level;
        let hi = (pos + 1) << level;
        let any = self.indices.iter().any(|&i| i >= lo && i < hi);
        if !any {
            let h = *self.hashes.get(*hash_pos)?;
            *hash_pos += 1;
            return Some(h);
        }
        if level == 0 {
            let h = *leaves.get(*leaf_pos)?;
            *leaf_pos += 1;
            return Some(h);
        }
        let l = self.recompute(level - 1, pos * 2, leaves, hash_pos, leaf_pos)?;
        let r = self.recompute(level - 1, pos * 2 + 1, leaves, hash_pos, leaf_pos)?;
        Some(node_hash(&l, &r))
    }

    /// Total proof size in bytes (hash payloads only), used by experiment E4.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.hashes.len() * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("item-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let t = MerkleTree::from_data(&items(1));
        let p = t.prove(0);
        assert!(verify(&t.root(), b"item-0", &p));
    }

    #[test]
    fn empty_tree_has_root() {
        let t = MerkleTree::from_leaf_hashes(vec![]);
        assert!(t.is_empty());
        let _ = t.root();
    }

    #[test]
    fn proofs_verify_all_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33] {
            let data = items(n);
            let t = MerkleTree::from_data(&data);
            for (i, item) in data.iter().enumerate() {
                let p = t.prove(i);
                assert!(verify(&t.root(), item, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf() {
        let data = items(8);
        let t = MerkleTree::from_data(&data);
        let p = t.prove(3);
        assert!(!verify(&t.root(), b"item-4", &p));
        assert!(!verify(&t.root(), b"tampered", &p));
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let data = items(8);
        let t1 = MerkleTree::from_data(&data);
        let t2 = MerkleTree::from_data(&items(9));
        let p = t1.prove(0);
        assert!(!verify(&t2.root(), b"item-0", &p));
    }

    #[test]
    fn proof_rejects_wrong_index() {
        let data = items(8);
        let t = MerkleTree::from_data(&data);
        let mut p = t.prove(3);
        p.leaf_index = 4;
        assert!(!verify(&t.root(), b"item-3", &p));
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A tree over one item's leaf hash as *data* must differ from the
        // tree over the item itself.
        let a = MerkleTree::from_data(&[b"x".to_vec()]);
        let lh = leaf_hash(b"x");
        let b = MerkleTree::from_data(&[lh.to_vec()]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn padding_not_provable_as_data() {
        // Tree of 3 leaves pads to 4; no payload should verify at index 3.
        let t = MerkleTree::from_data(&items(3));
        assert_eq!(t.len(), 3);
        let result = std::panic::catch_unwind(|| t.prove(3));
        assert!(result.is_err(), "proving a padding leaf must panic");
    }

    #[test]
    fn multiproof_roundtrip() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 31] {
            let data = items(n);
            let t = MerkleTree::from_data(&data);
            // Try several subsets.
            let subsets: Vec<Vec<usize>> = vec![
                vec![0],
                (0..n).collect(),
                (0..n).step_by(2).collect(),
                vec![n - 1],
            ];
            for subset in subsets {
                let mp = t.prove_multi(&subset);
                let leaves: Vec<Digest> = subset.iter().map(|&i| leaf_hash(&data[i])).collect();
                assert!(mp.verify(&t.root(), &leaves), "n={n} subset={subset:?}");
            }
        }
    }

    #[test]
    fn multiproof_rejects_substitution() {
        let data = items(8);
        let t = MerkleTree::from_data(&data);
        let mp = t.prove_multi(&[2, 5]);
        let good = vec![leaf_hash(&data[2]), leaf_hash(&data[5])];
        assert!(mp.verify(&t.root(), &good));
        let bad = vec![leaf_hash(&data[2]), leaf_hash(b"forged")];
        assert!(!mp.verify(&t.root(), &bad));
    }

    #[test]
    fn multiproof_rejects_omission() {
        // Completeness: the verifier detects when the publisher supplies
        // fewer leaves than the proof claims.
        let data = items(8);
        let t = MerkleTree::from_data(&data);
        let mp = t.prove_multi(&[2, 5]);
        let partial = vec![leaf_hash(&data[2])];
        assert!(!mp.verify(&t.root(), &partial));
    }

    #[test]
    fn multiproof_rejects_reordered_indices() {
        let data = items(8);
        let t = MerkleTree::from_data(&data);
        let mut mp = t.prove_multi(&[2, 5]);
        mp.indices = vec![5, 2];
        let leaves = vec![leaf_hash(&data[5]), leaf_hash(&data[2])];
        assert!(!mp.verify(&t.root(), &leaves));
    }

    #[test]
    fn multiproof_smaller_than_individual_proofs() {
        let data = items(64);
        let t = MerkleTree::from_data(&data);
        let subset: Vec<usize> = (0..32).collect();
        let mp = t.prove_multi(&subset);
        let individual: usize = subset.iter().map(|&i| t.prove(i).siblings.len() * 32).sum();
        assert!(mp.size_bytes() < individual);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let data = items(16);
        let base = MerkleTree::from_data(&data).root();
        for i in 0..16 {
            let mut d2 = data.clone();
            d2[i] = b"mutated".to_vec();
            assert_ne!(MerkleTree::from_data(&d2).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn sixty_four_siblings_are_refused() {
        let t = MerkleTree::from_data(&items(2));
        let mut p = t.prove(0);
        p.siblings = vec![[7u8; 32]; 64];
        assert!(!verify(&t.root(), b"item-0", &p));
    }

    #[test]
    fn a_leaf_count_past_the_widest_tree_is_refused() {
        let p = MerkleProof {
            leaf_index: 0,
            n_leaves: usize::MAX,
            siblings: vec![[7u8; 32]; 64],
        };
        assert!(!verify(&[0u8; 32], b"item-0", &p));
    }

    #[test]
    fn a_multiproof_past_the_widest_tree_is_refused() {
        let p = MultiProof {
            n_leaves: usize::MAX,
            indices: vec![0],
            hashes: vec![[7u8; 32]; 64],
        };
        assert!(!p.verify(&[0u8; 32], &[leaf_hash(b"item-0")]));
    }
}
