//! Crit-bit (PATRICIA) Merkle trie over the raw state keys.
//!
//! Each key is read as a bit string under a prefix-free, order-preserving
//! encoding: every byte becomes a `1` bit followed by its eight bits (most
//! significant first), and the key ends with a `0` bit. So `""`, `"a"`,
//! `"a\0"` and `"ab"` are all distinct, and an in-order walk of the trie
//! visits the keys in `BTreeMap` order.
//!
//! An inner node records the first bit position (its *crit bit*) at which
//! the keys below it differ; keys with a `0` there sit on the left, keys
//! with a `1` on the right. The shape therefore depends only on the key
//! set, never on insertion order, so the root is the same whatever the
//! order of writes, thread count, restart or sync path. Leaves hash with
//! [`leaf_hash`], inner nodes with [`node_hash`], and an empty trie has
//! root [`empty_root`].
//!
//! Nodes live in two arenas linked by `u32` indices. A leaf stores only its
//! hash: the trie never copies a key or a value. Insertion instead takes
//! the new key's neighbours in key order from the caller (the ordered KV
//! store holds them), which is enough to find the crit bit. A write marks
//! the inner nodes on its path dirty, and [`StateTrie::root`] rehashes each
//! dirty node once, so a block costs O(writes · depth). Descent, removal
//! and rehash are loops, so a deep chain of nested-prefix keys cannot
//! overflow a thread stack.

use crate::merkle::{empty_root, leaf_hash, node_hash, MerkleProof};

/// A child link: an index into `leaves` when [`LEAF`] is set, into
/// `inners` otherwise.
type Link = u32;

/// Tag bit of a [`Link`] that points at a leaf.
const LEAF: Link = 1 << 31;

struct Inner {
    /// Hash of the two children; stale while `dirty`.
    hash: [u8; 32],
    /// The crit bit: the first encoded bit at which the keys below differ.
    bit: u32,
    /// Subtrees whose keys have a `0` / `1` at `bit`.
    child: [Link; 2],
    /// Written below since the last [`StateTrie::root`].
    dirty: bool,
}

/// Encoded bit `pos` of `key` (0 past the terminator).
fn bit(key: &[u8], pos: u32) -> usize {
    let (byte, offset) = ((pos / 9) as usize, pos % 9);
    match key.get(byte) {
        Some(_) if offset == 0 => 1,
        Some(b) => usize::from((b >> (8 - offset)) & 1),
        None => 0,
    }
}

/// The first encoded bit at which two distinct keys differ.
fn crit_bit(a: &[u8], b: &[u8]) -> u32 {
    let pos = match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => 9 * i + 1 + (a[i] ^ b[i]).leading_zeros() as usize,
        // One key is a prefix of the other: its terminator meets a byte
        // marker.
        None => 9 * a.len().min(b.len()),
    };
    u32::try_from(pos).expect("state key too long for the trie")
}

/// The incrementally hashed state trie. [`crate::StateDb`] is its only user.
#[derive(Default)]
pub(crate) struct StateTrie {
    root: Option<Link>,
    inners: Vec<Inner>,
    leaves: Vec<[u8; 32]>,
    free_inners: Vec<u32>,
    free_leaves: Vec<u32>,
}

impl StateTrie {
    /// Build a trie from `(key, value)` pairs in strictly increasing key
    /// order, hashing every node once. The crit bits of adjacent keys
    /// determine the shape: the smallest one is the root, and a stack of
    /// open left subtrees assembles the rest in one pass.
    pub fn from_sorted<'a>(pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> StateTrie {
        let mut trie = StateTrie::default();
        let mut open: Vec<(Link, u32)> = Vec::new();
        let mut last: Option<(&[u8], Link)> = None;
        for (key, value) in pairs {
            let leaf = trie.new_leaf(leaf_hash(key, value));
            if let Some((prev, mut subtree)) = last {
                let crit = crit_bit(prev, key);
                while let Some(&(left, b)) = open.last() {
                    if b < crit {
                        break;
                    }
                    open.pop();
                    subtree = trie.join(b, left, subtree);
                }
                open.push((subtree, crit));
            }
            last = Some((key, leaf));
        }
        if let Some((_, mut subtree)) = last {
            while let Some((left, b)) = open.pop() {
                subtree = trie.join(b, left, subtree);
            }
            trie.root = Some(subtree);
        }
        trie
    }

    /// Insert `key`, which must not be in the trie yet, with leaf hash
    /// `leaf`. `pred` and `succ` are its neighbours in key order among the
    /// keys already present.
    pub fn insert(&mut self, key: &[u8], pred: Option<&[u8]>, succ: Option<&[u8]>, leaf: [u8; 32]) {
        let new = self.new_leaf(leaf);
        let Some(mut at) = self.root else {
            self.root = Some(new);
            return;
        };
        // The longest shared prefix with any present key is the one with a
        // neighbour; the new inner node splits there. (No neighbour means
        // the KV was edited behind the trie's back; the root then differs,
        // which `StateDb::verify_version` reports.)
        let crit = pred
            .into_iter()
            .chain(succ)
            .map(|n| crit_bit(n, key))
            .max()
            .unwrap_or(0);
        let mut parent = None;
        while at & LEAF == 0 {
            let node = &mut self.inners[at as usize];
            if node.bit > crit {
                break;
            }
            node.dirty = true;
            let dir = bit(key, node.bit);
            parent = Some((at, dir));
            at = node.child[dir];
        }
        let mut child = [at; 2];
        child[bit(key, crit)] = new;
        let split = self.new_inner(Inner {
            hash: [0; 32],
            bit: crit,
            child,
            dirty: true,
        });
        self.relink(parent, split);
    }

    /// Replace the leaf hash of `key`, which must be in the trie.
    pub fn update(&mut self, key: &[u8], leaf: [u8; 32]) {
        let Some(mut at) = self.root else { return };
        while at & LEAF == 0 {
            let node = &mut self.inners[at as usize];
            node.dirty = true;
            at = node.child[bit(key, node.bit)];
        }
        self.leaves[(at & !LEAF) as usize] = leaf;
    }

    /// Remove `key`, which must be in the trie; its parent collapses into
    /// the sibling.
    pub fn remove(&mut self, key: &[u8]) {
        let Some(mut at) = self.root else { return };
        let (mut grandparent, mut parent) = (None, None);
        while at & LEAF == 0 {
            let node = &mut self.inners[at as usize];
            node.dirty = true;
            let dir = bit(key, node.bit);
            grandparent = parent;
            parent = Some((at, dir));
            at = node.child[dir];
        }
        self.free_leaves.push(at & !LEAF);
        match parent {
            None => self.root = None,
            Some((p, dir)) => {
                let sibling = self.inners[p as usize].child[1 - dir];
                self.free_inners.push(p);
                self.relink(grandparent, sibling);
            }
        }
    }

    /// The root hash, after rehashing every dirty inner node once
    /// (children before parents).
    pub fn root(&mut self) -> [u8; 32] {
        let Some(root) = self.root else {
            return empty_root();
        };
        let mut stack = vec![(root, false)];
        while let Some((at, children_done)) = stack.pop() {
            if at & LEAF != 0 || !self.inners[at as usize].dirty {
                continue;
            }
            let [left, right] = self.inners[at as usize].child;
            if children_done {
                let hash = node_hash(&self.hash_of(left), &self.hash_of(right));
                let node = &mut self.inners[at as usize];
                node.hash = hash;
                node.dirty = false;
            } else {
                stack.extend([(at, true), (left, false), (right, false)]);
            }
        }
        self.hash_of(root)
    }

    /// Inclusion proof for `key`, which must be in the trie, against the
    /// last [`StateTrie::root`]. `None` for an empty trie.
    pub fn prove(&self, key: &[u8]) -> Option<MerkleProof> {
        let mut at = self.root?;
        let mut path = Vec::new();
        while at & LEAF == 0 {
            let node = &self.inners[at as usize];
            let dir = bit(key, node.bit);
            path.push((self.hash_of(node.child[1 - dir]), dir == 0));
            at = node.child[dir];
        }
        path.reverse();
        Some(MerkleProof { path })
    }

    fn hash_of(&self, at: Link) -> [u8; 32] {
        if at & LEAF != 0 {
            self.leaves[(at & !LEAF) as usize]
        } else {
            self.inners[at as usize].hash
        }
    }

    /// Point the parent's `dir` child (or the root) at `to`.
    fn relink(&mut self, parent: Option<(Link, usize)>, to: Link) {
        match parent {
            None => self.root = Some(to),
            Some((p, dir)) => self.inners[p as usize].child[dir] = to,
        }
    }

    /// A clean inner node over two finished subtrees.
    fn join(&mut self, bit: u32, left: Link, right: Link) -> Link {
        let hash = node_hash(&self.hash_of(left), &self.hash_of(right));
        self.new_inner(Inner {
            hash,
            bit,
            child: [left, right],
            dirty: false,
        })
    }

    fn new_leaf(&mut self, hash: [u8; 32]) -> Link {
        alloc(&mut self.leaves, &mut self.free_leaves, hash) | LEAF
    }

    fn new_inner(&mut self, node: Inner) -> Link {
        alloc(&mut self.inners, &mut self.free_inners, node)
    }
}

/// Store `item` in a freed slot of `arena`, or at its end; returns the
/// slot's index.
fn alloc<T>(arena: &mut Vec<T>, free: &mut Vec<u32>, item: T) -> u32 {
    if let Some(at) = free.pop() {
        arena[at as usize] = item;
        return at;
    }
    assert!(arena.len() < LEAF as usize, "trie arena full");
    arena.push(item);
    (arena.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoded bits of `key`, as the trie reads them.
    fn encode(key: &[u8]) -> Vec<usize> {
        (0..9 * key.len() as u32 + 1).map(|p| bit(key, p)).collect()
    }

    #[test]
    fn encoding_is_prefix_free_and_order_preserving() {
        let keys: [&[u8]; 6] = [b"", b"\0", b"a", b"a\0", b"ab", b"b"];
        for (i, a) in keys.iter().enumerate() {
            assert_eq!(encode(a).len(), 9 * a.len() + 1);
            for b in &keys[i + 1..] {
                let (ea, eb) = (encode(a), encode(b));
                assert!(ea < eb, "{a:?} < {b:?}");
                assert!(!eb.starts_with(&ea) && !ea.starts_with(&eb));
                let c = crit_bit(a, b) as usize;
                assert_eq!(ea[..c], eb[..c]);
                assert_eq!((ea[c], eb[c]), (0, 1), "{a:?} vs {b:?} at {c}");
            }
        }
    }

    #[test]
    fn single_leaf_root_is_its_hash_and_proof_is_empty() {
        let mut trie = StateTrie::default();
        assert_eq!(trie.root(), empty_root());
        assert!(trie.prove(b"k").is_none());
        trie.insert(b"k", None, None, leaf_hash(b"k", b"v"));
        assert_eq!(trie.root(), leaf_hash(b"k", b"v"));
        assert!(trie.prove(b"k").unwrap().path.is_empty());
        trie.remove(b"k");
        assert_eq!(trie.root(), empty_root());
    }

    #[test]
    fn two_leaves_hash_in_key_order() {
        let (a, b) = (leaf_hash(b"a", b"1"), leaf_hash(b"ab", b"2"));
        let mut trie = StateTrie::default();
        trie.insert(b"ab", None, None, b);
        trie.insert(b"a", None, Some(b"ab"), a);
        assert_eq!(trie.root(), node_hash(&a, &b));
        let sorted = StateTrie::from_sorted([(&b"a"[..], &b"1"[..]), (b"ab", b"2")]).root();
        assert_eq!(sorted, node_hash(&a, &b));
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut trie = StateTrie::default();
        trie.insert(b"a", None, None, [1; 32]);
        trie.insert(b"b", Some(b"a"), None, [2; 32]);
        trie.remove(b"b");
        trie.insert(b"c", Some(b"a"), None, [3; 32]);
        assert_eq!((trie.leaves.len(), trie.inners.len()), (2, 1));
        assert_eq!(trie.root(), node_hash(&[1; 32], &[3; 32]));
    }
}
