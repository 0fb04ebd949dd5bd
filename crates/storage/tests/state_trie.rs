//! The incrementally maintained state root against from-scratch builds.
//!
//! Every test is driven by a seeded `HmacDrbg`, so a failure reproduces
//! exactly. The differential and deep-chain tests are also run by name in
//! `scripts/check.sh` (the state commitment gate).

#![forbid(unsafe_code)]

use confide_crypto::{sha256, HmacDrbg};
use confide_storage::merkle::empty_root;
use confide_storage::{KvStore, StateDb, WriteBatch};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// A key from a tiny alphabet, so keys are often prefixes of one another,
/// differ only by a trailing `0x00`, or are empty.
fn gen_key(rng: &mut HmacDrbg) -> Vec<u8> {
    const ALPHABET: [u8; 4] = [0x00, b'a', b'b', 0xff];
    let len = rng.gen_range(6);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(4) as usize])
        .collect()
}

fn gen_value(rng: &mut HmacDrbg) -> Vec<u8> {
    let mut v = vec![0u8; rng.gen_range(9) as usize];
    rng.fill(&mut v);
    v
}

fn shuffle<T>(items: &mut [T], rng: &mut HmacDrbg) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
}

/// The root of `model` built from scratch: a fresh state that inserts the
/// pairs in shuffled order, one put per block (so every insert after the
/// first goes through the incremental path, not the bulk rebuild).
fn scratch_root(model: &Model, rng: &mut HmacDrbg) -> [u8; 32] {
    let mut pairs: Vec<_> = model.iter().collect();
    shuffle(&mut pairs, rng);
    let mut fresh = StateDb::new();
    for (height, (k, v)) in (1..).zip(pairs) {
        let mut batch = WriteBatch::new();
        batch.put(k.clone(), v.clone());
        fresh.apply_block(height, &batch).unwrap();
    }
    fresh.root()
}

/// The root of `model` computed straight from the trie's definition,
/// sharing no code with the trie: spell each key out as its encoded bits
/// (per byte a 1 then its eight bits, a 0 at the end), split the pairs at
/// the first bit where they do not all agree (0 left, 1 right), recurse,
/// and hash leaves as `sha256(0x00 || len_le32 || key || value)` and inner
/// nodes as `sha256(0x01 || left || right)`.
fn reference_root(model: &Model) -> [u8; 32] {
    fn bits(key: &[u8]) -> Vec<u8> {
        let mut out: Vec<u8> = key
            .iter()
            .flat_map(|b| std::iter::once(1).chain((0..8).rev().map(move |i| (b >> i) & 1)))
            .collect();
        out.push(0);
        out
    }
    fn build(pairs: &[(Vec<u8>, &Vec<u8>, &Vec<u8>)]) -> [u8; 32] {
        if let [(_, key, value)] = pairs {
            let len = (key.len() as u32).to_le_bytes();
            return sha256(&[&[0x00][..], &len, key, value].concat());
        }
        let first = &pairs[0].0;
        let split = pairs[1..]
            .iter()
            .map(|(b, _, _)| first.iter().zip(b).take_while(|(x, y)| x == y).count())
            .min()
            .unwrap();
        let (left, right): (Vec<_>, Vec<_>) =
            pairs.iter().cloned().partition(|(b, _, _)| b[split] == 0);
        sha256(&[&[0x01][..], &build(&left), &build(&right)].concat())
    }
    let pairs: Vec<_> = model.iter().map(|(k, v)| (bits(k), k, v)).collect();
    if pairs.is_empty() {
        return empty_root();
    }
    build(&pairs)
}

/// One random block: puts of new keys, overwrites, deletes of live and
/// absent keys, repeated writes to one key; now and then every live key
/// is deleted.
fn gen_block(model: &Model, rng: &mut HmacDrbg) -> WriteBatch {
    let mut batch = WriteBatch::new();
    if !model.is_empty() && rng.gen_range(12) == 0 {
        for k in model.keys() {
            batch.delete(k.clone());
        }
        return batch;
    }
    let live: Vec<&Vec<u8>> = model.keys().collect();
    for _ in 0..rng.gen_range(12) + 1 {
        let key = if !live.is_empty() && rng.gen_range(2) == 0 {
            live[rng.gen_range(live.len() as u64) as usize].clone()
        } else {
            gen_key(rng)
        };
        if rng.gen_range(3) == 0 {
            batch.delete(key);
        } else {
            batch.put(key, gen_value(rng));
        }
    }
    batch
}

#[test]
fn incremental_root_matches_shuffled_rebuild_after_every_block() {
    let mut rng = HmacDrbg::from_u64(0x7472_6965);
    let mut db = StateDb::new();
    let mut model = Model::new();
    let empty = db.root();
    let (mut emptied, mut empty_key, mut trailing_zero, mut nested) = (0, 0, 0, 0);
    for height in 1..=400u64 {
        let batch = gen_block(&model, &mut rng);
        for (k, v) in &batch.ops {
            match v {
                Some(v) => model.insert(k.clone(), v.clone()),
                None => model.remove(k),
            };
        }
        let root = db.apply_block(height, &batch).unwrap();
        assert_eq!(root, db.root());
        assert_eq!(root, scratch_root(&model, &mut rng), "height {height}");
        assert_eq!(root, reference_root(&model), "height {height}");
        db.verify_version(height).unwrap();
        if model.is_empty() {
            assert_eq!(root, empty, "height {height}");
            emptied += 1;
        }
        assert!(db.kv().iter().eq(model.iter()));
        // Count the blocks whose state held each edge case.
        empty_key += usize::from(model.contains_key(&b""[..]));
        let live_with = |k: &Vec<u8>, tail: u8| model.contains_key(&[&k[..], &[tail]].concat());
        trailing_zero += usize::from(model.keys().any(|k| live_with(k, 0)));
        nested += usize::from(model.keys().any(|k| live_with(k, b'a') && k.len() > 1));
    }
    // The walk really visited the edge cases it is meant to cover.
    for (case, blocks) in [
        ("emptied", emptied),
        ("empty key", empty_key),
        ("trailing 0x00", trailing_zero),
        ("nested prefixes", nested),
    ] {
        assert!(blocks > 1, "{case}: {blocks} blocks");
    }
}

#[test]
fn every_live_key_proves_and_absent_keys_do_not() {
    let mut rng = HmacDrbg::from_u64(0x7072_6f6f);
    let mut db = StateDb::new();
    let mut model = Model::new();
    for height in 1..=40u64 {
        let batch = gen_block(&model, &mut rng);
        for (k, v) in &batch.ops {
            match v {
                Some(v) => model.insert(k.clone(), v.clone()),
                None => model.remove(k),
            };
        }
        let root = db.apply_block(height, &batch).unwrap();
        let live: Vec<_> = model.iter().collect();
        for (i, (k, v)) in live.iter().enumerate() {
            let (value, proof) = db.prove(k).expect("live key proves");
            assert_eq!(&value, *v);
            assert!(proof.verify(&root, k, v), "height {height} key {k:?}");
            let mut wrong = v.to_vec();
            wrong.push(0x5a);
            assert!(!proof.verify(&root, k, &wrong));
            // Another live pair does not pass with this key's proof.
            let (other_k, other_v) = live[(i + 1) % live.len()];
            if other_k != *k {
                assert!(!proof.verify(&root, other_k, other_v));
            }
        }
        for _ in 0..8 {
            let k = gen_key(&mut rng);
            if !model.contains_key(&k) {
                assert!(db.prove(&k).is_none());
            }
        }
    }
}

/// Put `keys` (value: the key's length) in blocks no larger than the
/// state, so they take the incremental path rather than the bulk rebuild.
fn put_incrementally(db: &mut StateDb, keys: &[Vec<u8>]) -> [u8; 32] {
    let mut rest = keys;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(db.kv().len().clamp(1, rest.len()));
        let mut batch = WriteBatch::new();
        for k in chunk {
            batch.put(k.clone(), k.len().to_le_bytes().to_vec());
        }
        db.apply_block(db.height() + 1, &batch).unwrap();
        rest = tail;
    }
    db.root()
}

#[test]
fn deep_nested_prefix_chain_roots_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            // `k`, `kk`, ...: every key is a prefix of the next, so the
            // trie is one chain 4096 nodes deep.
            let keys: Vec<Vec<u8>> = (1..=4096).map(|n| vec![b'k'; n]).collect();
            let mut db = StateDb::new();
            let root = put_incrementally(&mut db, &keys);
            db.verify_version(db.height()).unwrap();
            let reversed: Vec<Vec<u8>> = keys.iter().rev().cloned().collect();
            assert_eq!(put_incrementally(&mut StateDb::new(), &reversed), root);
            let mut bulk = WriteBatch::new();
            for k in &keys {
                bulk.put(k.clone(), k.len().to_le_bytes().to_vec());
            }
            assert_eq!(StateDb::new().apply_block(1, &bulk).unwrap(), root);
            let deepest = keys.last().unwrap();
            let (value, proof) = db.prove(deepest).unwrap();
            assert_eq!(proof.path.len(), 4095);
            assert!(proof.verify(&root, deepest, &value));
            let mut clear = WriteBatch::new();
            for k in &keys {
                clear.delete(k.clone());
            }
            let height = db.height() + 1;
            assert_eq!(
                db.apply_block(height, &clear).unwrap(),
                StateDb::new().root()
            );
        })
        .unwrap()
        .join()
        .expect("deep chain completes on a 256 KiB stack");
}
