//! Ordered key-value storage.

use std::collections::BTreeMap;
use std::ops::Bound;

/// A batch of writes applied atomically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    /// (key, Some(value)) puts and (key, None) deletes, in order.
    pub ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queue a put.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((key.into(), Some(value.into())));
        self
    }

    /// Queue a delete.
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push((key.into(), None));
        self
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total payload bytes (disk-write size input for the I/O model).
    pub fn byte_size(&self) -> usize {
        self.ops
            .iter()
            .map(|(k, v)| k.len() + v.as_ref().map_or(0, |v| v.len()))
            .sum()
    }
}

/// An ordered KV store. Blocking, single-version; versioning lives in
/// [`crate::versioned`].
pub trait KvStore: Send {
    /// Point read.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Point write.
    fn put(&mut self, key: &[u8], value: &[u8]);
    /// Delete.
    fn delete(&mut self, key: &[u8]);
    /// All pairs whose key starts with `prefix`, in key order.
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;
    /// Apply a batch atomically.
    fn apply(&mut self, batch: &WriteBatch) {
        for (k, v) in &batch.ops {
            match v {
                Some(v) => self.put(k, v),
                None => self.delete(k),
            }
        }
    }
    /// Number of live keys.
    fn len(&self) -> usize;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory ordered store backed by a BTreeMap.
#[derive(Debug, Default, Clone)]
pub struct MemKv {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl MemKv {
    /// Fresh empty store.
    pub fn new() -> MemKv {
        MemKv::default()
    }

    /// Iterate all pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &Vec<u8>)> {
        self.map.iter()
    }

    /// True when `key` is live.
    pub(crate) fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// The live keys just before and just after `key` in key order.
    pub(crate) fn neighbours(&self, key: &[u8]) -> (Option<&[u8]>, Option<&[u8]>) {
        let pred = self
            .map
            .range::<[u8], _>((Bound::Unbounded, Bound::Excluded(key)))
            .next_back();
        let succ = self
            .map
            .range::<[u8], _>((Bound::Excluded(key), Bound::Unbounded))
            .next();
        (pred.map(|(k, _)| &k[..]), succ.map(|(k, _)| &k[..]))
    }
}

impl KvStore for MemKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.get(key).cloned()
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.map.insert(key.to_vec(), value.to_vec());
    }

    fn delete(&mut self, key: &[u8]) {
        self.map.remove(key);
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.map
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut kv = MemKv::new();
        kv.put(b"a", b"1");
        assert_eq!(kv.get(b"a"), Some(b"1".to_vec()));
        kv.delete(b"a");
        assert_eq!(kv.get(b"a"), None);
        assert!(kv.is_empty());
    }

    #[test]
    fn scan_prefix_ordered_and_bounded() {
        let mut kv = MemKv::new();
        kv.put(b"acct:alice", b"1");
        kv.put(b"acct:bob", b"2");
        kv.put(b"asset:x", b"3");
        kv.put(b"acct:carol", b"4");
        let hits = kv.scan_prefix(b"acct:");
        assert_eq!(
            hits.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
            vec![&b"acct:alice"[..], b"acct:bob", b"acct:carol"]
        );
        assert!(kv.scan_prefix(b"zz").is_empty());
    }

    #[test]
    fn batch_applies_in_order() {
        let mut kv = MemKv::new();
        let mut batch = WriteBatch::new();
        batch.put(b"k".to_vec(), b"v1".to_vec());
        batch.put(b"k".to_vec(), b"v2".to_vec()); // later op wins
        batch.put(b"gone".to_vec(), b"x".to_vec());
        batch.delete(b"gone".to_vec());
        kv.apply(&batch);
        assert_eq!(kv.get(b"k"), Some(b"v2".to_vec()));
        assert_eq!(kv.get(b"gone"), None);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.byte_size(), 1 + 2 + 1 + 2 + 4 + 1 + 4);
    }
}
