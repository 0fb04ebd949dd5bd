//! Merkle hashing shared by the state trie and the transaction root.
//!
//! Leaves and interior nodes hash with domain separation, so a leaf can
//! never be passed off as an interior node or the reverse. The state trie
//! (the crate's `trie` module) hashes its nodes with these functions; its
//! root is the state commitment included in block headers, and all nodes
//! must agree on it after executing a block ("only the transactions whose
//! results are computed based on the latest states can pass the consensus
//! phase", §3.3). [`MerkleProof`] is the inclusion proof that backs SPV-style
//! consensus reads for clients that do not trust a single node.
//! [`MerkleTree`] is the plain binary tree over a block's transaction
//! hashes.

use confide_crypto::sha2::Sha256;
use confide_crypto::sha256;

/// Domain-separated leaf hash of one state entry.
pub(crate) fn leaf_hash(key: &[u8], value: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(&(key.len() as u32).to_le_bytes());
    h.update(key);
    h.update(value);
    h.finalize()
}

/// Domain-separated interior hash.
pub(crate) fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The root of an empty tree.
pub fn empty_root() -> [u8; 32] {
    sha256(b"confide-empty-state")
}

/// A binary Merkle tree over precomputed leaf hashes (a block's
/// transaction hashes).
pub struct MerkleTree {
    root: [u8; 32],
}

impl MerkleTree {
    /// Build from precomputed leaf hashes (e.g. transaction hashes).
    pub fn from_leaves(mut level: Vec<[u8; 32]>) -> MerkleTree {
        if level.is_empty() {
            return MerkleTree { root: empty_root() };
        }
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => node_hash(a, b),
                    // Odd node promoted by hashing with itself (bitcoin-style).
                    [a] => node_hash(a, a),
                    _ => unreachable!(),
                })
                .collect();
        }
        MerkleTree { root: level[0] }
    }

    /// The root hash.
    pub fn root(&self) -> [u8; 32] {
        self.root
    }
}

/// An inclusion proof: sibling hashes bottom-up, with "this node is the
/// left child" flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// (sibling hash, this-node-is-left) per level, leaf first.
    pub path: Vec<([u8; 32], bool)>,
}

impl MerkleProof {
    /// Verify that `(key, value)` is included under `root`.
    pub fn verify(&self, root: &[u8; 32], key: &[u8], value: &[u8]) -> bool {
        self.verify_leaf(root, leaf_hash(key, value))
    }

    /// Verify a precomputed leaf hash.
    pub fn verify_leaf(&self, root: &[u8; 32], leaf: [u8; 32]) -> bool {
        let mut acc = leaf;
        for (sibling, is_left) in &self.path {
            acc = if *is_left {
                node_hash(&acc, sibling)
            } else {
                node_hash(sibling, &acc)
            };
        }
        &acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streamed hashes hash exactly the bytes of the documented
    /// encodings.
    #[test]
    fn hashes_match_their_byte_encodings() {
        let mut leaf = vec![0x00];
        leaf.extend_from_slice(&3u32.to_le_bytes());
        leaf.extend_from_slice(b"keyvalue");
        assert_eq!(leaf_hash(b"key", b"value"), sha256(&leaf));
        let (a, b) = ([1u8; 32], [2u8; 32]);
        let node = [&[0x01][..], &a, &b].concat();
        assert_eq!(node_hash(&a, &b), sha256(&node));
    }

    #[test]
    fn tx_root_shape() {
        assert_eq!(MerkleTree::from_leaves(Vec::new()).root(), empty_root());
        let (a, b, c) = ([1u8; 32], [2u8; 32], [3u8; 32]);
        assert_eq!(MerkleTree::from_leaves(vec![a]).root(), a);
        assert_eq!(
            MerkleTree::from_leaves(vec![a, b]).root(),
            node_hash(&a, &b)
        );
        // The odd last node pairs with itself.
        assert_eq!(
            MerkleTree::from_leaves(vec![a, b, c]).root(),
            node_hash(&node_hash(&a, &b), &node_hash(&c, &c))
        );
    }

    #[test]
    fn proof_folds_siblings_in_order() {
        let (leaf, s0, s1) = (leaf_hash(b"k", b"v"), [7u8; 32], [8u8; 32]);
        let root = node_hash(&s1, &node_hash(&leaf, &s0));
        let proof = MerkleProof {
            path: vec![(s0, true), (s1, false)],
        };
        assert!(proof.verify(&root, b"k", b"v"));
        assert!(!proof.verify(&root, b"k", b"w"));
        assert!(!proof.verify(&root, b"j", b"v"));
    }
}
