//! Block-framed write-ahead log: the durable-commit seam of the node.
//!
//! Every record is framed as `op, key-len, key, value-len, value, crc`
//! (lengths u32le, CRC-32 over everything before it), so a torn or
//! corrupt record is detected on its own. A node needs *block*-level
//! atomicity on top — a crash mid-commit must roll the whole block back,
//! never replay half of its state mutations — so one committed block is
//! framed as a record group:
//!
//! ```text
//! HEADER(height → encoded header)
//! TX(index → wire bytes)            × block.txs
//! PUT(key → value) | DEL(key)       × state batch ops
//! COMMIT(height → state_root)       ← the commit marker
//! ```
//!
//! Recovery replays a block only when its `COMMIT` marker is intact and
//! matches the group's `HEADER`; anything after the last intact marker —
//! a torn record, a CRC mismatch, a group missing its marker — is
//! discarded. The log itself is a byte buffer (the process's durable
//! artifact is whatever it flushed to disk); `confide-node` appends the
//! buffer incrementally to a file after every sealed block.

use crate::blockstore::BlockHeader;
use crate::kv::WriteBatch;

const OP_HEADER: u8 = 0x10;
const OP_TX: u8 = 0x11;
const OP_PUT: u8 = 0x12;
const OP_DEL: u8 = 0x13;
const OP_CERT: u8 = 0x1E;
const OP_COMMIT: u8 = 0x1F;

/// CRC-32 (IEEE 802.3, bitwise — plenty for framing integrity).
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frame one `(op, key, value)` record onto `log`.
fn append_record(log: &mut Vec<u8>, op: u8, key: &[u8], value: &[u8]) {
    let start = log.len();
    log.push(op);
    log.extend_from_slice(&(key.len() as u32).to_le_bytes());
    log.extend_from_slice(key);
    log.extend_from_slice(&(value.len() as u32).to_le_bytes());
    log.extend_from_slice(value);
    let crc = crc32(&log[start..]);
    log.extend_from_slice(&crc.to_le_bytes());
}

/// Parse one record at `pos`: `(op, key, value, next_pos)`, or `None` on
/// truncation or CRC mismatch.
fn read_record(log: &[u8], pos: usize) -> Option<(u8, &[u8], &[u8], usize)> {
    let op = *log.get(pos)?;
    let mut cursor = pos + 1;
    let take = |cursor: &mut usize, n: usize| -> Option<&[u8]> {
        let s = log.get(*cursor..*cursor + n)?;
        *cursor += n;
        Some(s)
    };
    let klen = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().ok()?) as usize;
    let key_start = cursor;
    take(&mut cursor, klen)?;
    let vlen = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().ok()?) as usize;
    let value_start = cursor;
    take(&mut cursor, vlen)?;
    let stored_crc = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().ok()?);
    if crc32(&log[pos..cursor - 4]) != stored_crc {
        return None;
    }
    Some((
        op,
        &log[key_start..key_start + klen],
        &log[value_start..value_start + vlen],
        cursor,
    ))
}

/// One fully committed block recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBlock {
    /// The block header exactly as sealed.
    pub header: BlockHeader,
    /// Raw transaction bytes (the accepted transactions).
    pub txs: Vec<Vec<u8>>,
    /// The state mutations the block committed, in batch order.
    pub batch: WriteBatch,
}

/// Outcome of scanning a log: the committed prefix plus what was cut off.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every block with an intact commit marker, in height order.
    pub blocks: Vec<WalBlock>,
    /// Byte offset of each block's end (just past its commit marker),
    /// parallel to `blocks`. `ends[i]` is the log length that replays
    /// exactly `blocks[..=i]` — the truncation points certificate-gated
    /// repair cuts back to.
    pub ends: Vec<usize>,
    /// Bytes of the committed prefix (everything after is the torn tail).
    pub consumed: usize,
    /// Bytes discarded after the last commit marker (0 on a clean log).
    pub torn_bytes: usize,
}

/// The block-framed WAL. Append-only; every committed block becomes one
/// record group terminated by a commit marker.
#[derive(Default)]
pub struct BlockWal {
    log: Vec<u8>,
}

impl BlockWal {
    /// Fresh empty log.
    pub fn new() -> BlockWal {
        BlockWal::default()
    }

    /// Rebuild a log from recovered bytes, keeping only the committed
    /// prefix (the torn tail, if any, is dropped).
    pub fn from_recovered(log: &[u8]) -> BlockWal {
        let rec = BlockWal::recover(log);
        BlockWal {
            log: log[..rec.consumed].to_vec(),
        }
    }

    /// The raw log bytes (what a file-backed node has on disk).
    pub fn bytes(&self) -> &[u8] {
        &self.log
    }

    /// Total log length — `confide-node` flushes `bytes()[flushed..]`
    /// after each block.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Frame one committed block into the log: header, transactions,
    /// state mutations, commit marker.
    pub fn append_block(&mut self, header: &BlockHeader, txs: &[Vec<u8>], batch: &WriteBatch) {
        append_record(
            &mut self.log,
            OP_HEADER,
            &header.height.to_le_bytes(),
            &header.encode(),
        );
        for (i, tx) in txs.iter().enumerate() {
            append_record(&mut self.log, OP_TX, &(i as u32).to_le_bytes(), tx);
        }
        for (key, value) in &batch.ops {
            match value {
                Some(v) => append_record(&mut self.log, OP_PUT, key, v),
                None => append_record(&mut self.log, OP_DEL, key, &[]),
            }
        }
        append_record(
            &mut self.log,
            OP_COMMIT,
            &header.height.to_le_bytes(),
            &header.state_root,
        );
    }

    /// Scan `log` and return every block whose commit marker is intact.
    /// Never panics: a torn record, a corrupt CRC, an out-of-place op or a
    /// group without its marker ends the committed prefix right there.
    pub fn recover(log: &[u8]) -> WalRecovery {
        let mut blocks = Vec::new();
        let mut ends = Vec::new();
        let mut consumed = 0usize;
        let mut pos = 0usize;
        // The group being accumulated (no commit marker seen yet).
        let mut pending: Option<WalBlock> = None;
        while pos < log.len() {
            let Some((op, key, value, next)) = read_record(log, pos) else {
                break; // torn tail
            };
            match (op, &mut pending) {
                (OP_HEADER, None) => {
                    let Some(header) = decode_header_record(key, value) else {
                        break; // poisoned group: stop here
                    };
                    pending = Some(WalBlock {
                        header,
                        txs: Vec::new(),
                        batch: WriteBatch::new(),
                    });
                }
                (OP_TX, Some(block)) => {
                    // Tx records carry their index; out-of-order means a
                    // corrupted group.
                    let ok = key.len() == 4
                        && u32::from_le_bytes(key.try_into().expect("len checked")) as usize
                            == block.txs.len();
                    if !ok {
                        break;
                    }
                    block.txs.push(value.to_vec());
                }
                (OP_PUT, Some(block)) => {
                    block.batch.put(key.to_vec(), value.to_vec());
                }
                (OP_DEL, Some(block)) => {
                    block.batch.delete(key.to_vec());
                }
                (OP_COMMIT, Some(_)) => {
                    let block = pending.take().expect("matched Some");
                    let matches = key == block.header.height.to_le_bytes()
                        && value == block.header.state_root;
                    if !matches {
                        break;
                    }
                    blocks.push(block);
                    ends.push(next);
                    consumed = next;
                }
                _ => break, // op out of place
            }
            pos = next;
        }
        WalRecovery {
            blocks,
            ends,
            torn_bytes: log.len() - consumed,
            consumed,
        }
    }
}

fn decode_header_record(key: &[u8], value: &[u8]) -> Option<BlockHeader> {
    let header = BlockHeader::decode(value)?;
    if key != header.height.to_le_bytes() {
        return None;
    }
    Some(header)
}

/// Outcome of scanning a certificate sidecar log.
#[derive(Debug)]
pub struct CertRecovery {
    /// `(height, opaque certificate bytes)` in append order.
    pub certs: Vec<(u64, Vec<u8>)>,
    /// Bytes of the intact prefix.
    pub consumed: usize,
    /// Bytes discarded after the last intact record.
    pub torn_bytes: usize,
}

/// Sidecar log of quorum certificates, one CRC'd record per committed
/// height, stored *next to* the block WAL (`<wal>.certs`) rather than in
/// it: different replicas legitimately assemble different 2f+1 vote
/// subsets, so splicing certificates into the block stream would break the
/// byte-identical-WAL invariant that state-sync byte cursors rely on.
///
/// Certificate bytes are opaque here — encoding and verification belong to
/// the consensus crate; storage only promises crash-consistent framing
/// (same record format and torn-tail semantics as [`BlockWal`]).
#[derive(Default)]
pub struct CertLog {
    log: Vec<u8>,
}

impl CertLog {
    /// Fresh empty log.
    pub fn new() -> CertLog {
        CertLog::default()
    }

    /// Rebuild from recovered bytes, keeping only the intact prefix.
    pub fn from_recovered(log: &[u8]) -> CertLog {
        let rec = CertLog::recover(log);
        CertLog {
            log: log[..rec.consumed].to_vec(),
        }
    }

    /// The raw log bytes (flushed incrementally like the block WAL).
    pub fn bytes(&self) -> &[u8] {
        &self.log
    }

    /// Total log length — the flush cursor seam.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when no certificate has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Append the certificate for `height`.
    pub fn append_cert(&mut self, height: u64, cert: &[u8]) {
        append_record(&mut self.log, OP_CERT, &height.to_le_bytes(), cert);
    }

    /// Scan `log` and return every intact certificate record. Never
    /// panics; a torn or corrupt record ends the prefix right there.
    pub fn recover(log: &[u8]) -> CertRecovery {
        let mut certs = Vec::new();
        let mut consumed = 0usize;
        let mut pos = 0usize;
        while pos < log.len() {
            let Some((op, key, value, next)) = read_record(log, pos) else {
                break;
            };
            if op != OP_CERT || key.len() != 8 {
                break;
            }
            let height = u64::from_le_bytes(key.try_into().expect("len checked"));
            certs.push((height, value.to_vec()));
            consumed = next;
            pos = next;
        }
        CertRecovery {
            certs,
            torn_bytes: log.len() - consumed,
            consumed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(height: u64) -> BlockHeader {
        BlockHeader {
            height,
            parent: [height as u8; 32],
            state_root: [height as u8 + 1; 32],
            tx_root: [height as u8 + 2; 32],
            timestamp_ns: height * 1_000_000,
        }
    }

    fn sample_wal(blocks: u64) -> BlockWal {
        let mut wal = BlockWal::new();
        for h in 1..=blocks {
            let mut batch = WriteBatch::new();
            batch.put(format!("k{h}").into_bytes(), vec![h as u8; 8]);
            batch.delete(format!("dead{h}").into_bytes());
            wal.append_block(&header(h), &[vec![h as u8, 1], vec![h as u8, 2]], &batch);
        }
        wal
    }

    #[test]
    fn round_trips_every_committed_block() {
        let wal = sample_wal(5);
        let rec = BlockWal::recover(wal.bytes());
        assert_eq!(rec.blocks.len(), 5);
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.consumed, wal.len());
        for (i, b) in rec.blocks.iter().enumerate() {
            let h = i as u64 + 1;
            assert_eq!(b.header, header(h));
            assert_eq!(b.txs.len(), 2);
            assert_eq!(b.batch.len(), 2);
        }
    }

    #[test]
    fn truncation_at_every_offset_rolls_back_to_a_block_boundary() {
        let wal = sample_wal(3);
        let full = BlockWal::recover(wal.bytes());
        let boundaries: Vec<usize> = {
            // Reconstruct the per-block committed prefix lengths.
            let mut w = BlockWal::new();
            let mut ends = vec![0usize];
            for b in &full.blocks {
                w.append_block(&b.header, &b.txs, &b.batch);
                ends.push(w.len());
            }
            ends
        };
        for cut in 0..wal.len() {
            let rec = BlockWal::recover(&wal.bytes()[..cut]);
            // Prefix-consistency: exactly the blocks whose marker fits.
            let want = boundaries.iter().filter(|&&e| e > 0 && e <= cut).count();
            assert_eq!(rec.blocks.len(), want, "cut={cut}");
            assert_eq!(&rec.blocks[..], &full.blocks[..want], "cut={cut}");
        }
    }

    #[test]
    fn single_bit_corruption_never_yields_a_wrong_block() {
        let wal = sample_wal(2);
        let full = BlockWal::recover(wal.bytes());
        for byte in 0..wal.len() {
            let mut log = wal.bytes().to_vec();
            log[byte] ^= 0x40;
            let rec = BlockWal::recover(&log);
            // Corruption may shorten the prefix, never alter content.
            assert!(rec.blocks.len() <= full.blocks.len(), "byte={byte}");
            assert_eq!(
                &full.blocks[..rec.blocks.len()],
                &rec.blocks[..],
                "byte={byte}"
            );
        }
    }

    #[test]
    fn from_recovered_drops_the_torn_tail() {
        let wal = sample_wal(2);
        let mut log = wal.bytes().to_vec();
        log.extend_from_slice(&[0x10, 0xFF, 0xEE]); // half a record
        let rebuilt = BlockWal::from_recovered(&log);
        assert_eq!(rebuilt.len(), wal.len());
        assert_eq!(BlockWal::recover(rebuilt.bytes()).blocks.len(), 2);
    }

    #[test]
    fn group_without_marker_is_not_replayed() {
        let mut wal = sample_wal(1);
        // Start a second group by hand, no commit marker.
        let h = header(2);
        append_record(&mut wal.log, OP_HEADER, &2u64.to_le_bytes(), &h.encode());
        append_record(&mut wal.log, OP_PUT, b"half", b"done");
        let rec = BlockWal::recover(wal.bytes());
        assert_eq!(rec.blocks.len(), 1);
        assert!(rec.torn_bytes > 0);
    }

    #[test]
    fn cert_log_round_trips_and_survives_torn_tail() {
        let mut certs = CertLog::new();
        certs.append_cert(1, &[0xAA; 40]);
        certs.append_cert(2, &[0xBB; 44]);
        certs.append_cert(3, &[0xCC; 48]);
        let rec = CertLog::recover(certs.bytes());
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(
            rec.certs,
            vec![
                (1, vec![0xAA; 40]),
                (2, vec![0xBB; 44]),
                (3, vec![0xCC; 48]),
            ]
        );
        // Torn tail: every truncation keeps an intact prefix.
        for cut in 0..certs.len() {
            let rec = CertLog::recover(&certs.bytes()[..cut]);
            assert!(rec.certs.len() <= 3, "cut={cut}");
            for (i, (h, _)) in rec.certs.iter().enumerate() {
                assert_eq!(*h, i as u64 + 1, "cut={cut}");
            }
        }
        let rebuilt = CertLog::from_recovered(&certs.bytes()[..certs.len() - 3]);
        assert_eq!(CertLog::recover(rebuilt.bytes()).certs.len(), 2);
    }

    /// Satellite: flip one byte in every record kind (HEADER/TX/PUT/DEL/
    /// COMMIT in the block WAL, CERT in the sidecar) at the head, middle,
    /// and tail of the record. Recovery must never panic and must yield a
    /// strict prefix of the uncorrupted content — corrupt state is never
    /// silently accepted.
    #[test]
    fn corruption_matrix_every_record_kind_and_position() {
        let wal = sample_wal(3);
        let full = BlockWal::recover(wal.bytes());
        assert_eq!(full.blocks.len(), 3);
        // Walk the record stream to find each record's op and extent.
        let mut records = Vec::new();
        let mut pos = 0usize;
        while let Some((op, _, _, next)) = read_record(wal.bytes(), pos) {
            records.push((op, pos, next));
            pos = next;
        }
        let kinds: std::collections::BTreeSet<u8> = records.iter().map(|(op, _, _)| *op).collect();
        assert_eq!(
            kinds,
            [OP_HEADER, OP_TX, OP_PUT, OP_DEL, OP_COMMIT]
                .into_iter()
                .collect(),
            "matrix must cover every block-WAL record kind"
        );
        for (op, start, end) in &records {
            for at in [*start, (*start + *end) / 2, *end - 1] {
                let mut log = wal.bytes().to_vec();
                log[at] ^= 0x01;
                let rec = BlockWal::recover(&log);
                assert!(
                    rec.blocks.len() <= full.blocks.len(),
                    "op={op:#x} at={at}: grew the chain"
                );
                assert_eq!(
                    &full.blocks[..rec.blocks.len()],
                    &rec.blocks[..],
                    "op={op:#x} at={at}: accepted corrupt content"
                );
                assert_eq!(&full.ends[..rec.blocks.len()], &rec.ends[..]);
            }
        }
        // And the CERT sidecar kind.
        let mut certs = CertLog::new();
        for h in 1..=3u64 {
            certs.append_cert(h, &[h as u8; 32]);
        }
        let clean = CertLog::recover(certs.bytes()).certs;
        let len = certs.len();
        for at in [0, len / 2, len - 1] {
            let mut log = certs.bytes().to_vec();
            log[at] ^= 0x01;
            let rec = CertLog::recover(&log);
            assert!(rec.certs.len() <= clean.len(), "cert at={at}");
            assert_eq!(&clean[..rec.certs.len()], &rec.certs[..], "cert at={at}");
        }
    }

    #[test]
    fn recovery_ends_mark_block_boundaries() {
        let wal = sample_wal(4);
        let rec = BlockWal::recover(wal.bytes());
        assert_eq!(rec.ends.len(), 4);
        assert_eq!(*rec.ends.last().unwrap(), wal.len());
        for (i, end) in rec.ends.iter().enumerate() {
            // Truncating at ends[i] replays exactly i+1 blocks.
            let cut = BlockWal::recover(&wal.bytes()[..*end]);
            assert_eq!(cut.blocks.len(), i + 1);
            assert_eq!(cut.torn_bytes, 0);
        }
    }

    #[test]
    fn crc32_known_value() {
        // CRC-32("123456789") = 0xCBF43926 — the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn header_encode_decode_round_trip() {
        let h = header(7);
        let enc = h.encode();
        assert_eq!(enc.len(), 112);
        assert_eq!(BlockHeader::decode(&enc), Some(h));
        assert_eq!(BlockHeader::decode(&enc[..111]), None);
    }
}
