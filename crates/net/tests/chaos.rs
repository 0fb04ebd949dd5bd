//! Chaos end-to-end tests: kill and restart a live node mid-stream,
//! behind a fault-injecting proxy, and prove the crash-safety triad —
//! no committed receipt lost, no transaction executed twice, final state
//! byte-identical to a fault-free run. Plus the satellite regressions:
//! transparent gateway redial across a server restart, and key recovery
//! over the wire via the K-Protocol join.

use confide_core::client::ConfideClient;
use confide_core::receipt::Receipt;
use confide_core::seal_signed_tx;
use confide_core::tx::WireTx;
use confide_crypto::HmacDrbg;
use confide_net::demo::{demo_keys, demo_node_with, demo_platform, DEMO_CONTRACT};
use confide_net::fault::{FaultPlan, FaultProxy};
use confide_net::{
    Client, ClientConfig, Conn, ErrorKind, NetError, NodeServer, RetryPolicy, ServerConfig,
};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A unique temp path that does not survive the test (best-effort
/// cleanup at the end of each test body).
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("confide-chaos-{}-{name}", std::process::id()))
}

/// A server config tuned for chaos tests: tiny linger (1 tx ≈ 1 block
/// for a sequential client), short read timeout so connections stalled
/// mid-frame by the fault proxy are reaped quickly.
fn chaos_config(wal: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        batch_linger: Duration::from_millis(1),
        read_timeout: Duration::from_millis(200),
        wal_path: wal,
        ..ServerConfig::default()
    }
}

/// One prepared demo transaction with everything needed to verify its
/// receipt later.
struct Prepared {
    wire: WireTx,
    tx_hash: [u8; 32],
    k_tx: [u8; 32],
}

/// Seal `n` sequential transfers (amount = (i % 97) + 1 to one account)
/// from a deterministic client against `pk_tx`.
fn prepare_stream(pk_tx: &[u8; 32], n: usize) -> Vec<Prepared> {
    let mut client = ConfideClient::new([21u8; 32], [22u8; 32], 2_000);
    let mut rng = HmacDrbg::from_u64(2_100);
    (0..n)
        .map(|i| {
            let args = format!(r#"{{"to":"crash-dummy","amount":{}}}"#, (i % 97) + 1);
            let signed = client.build_raw(DEMO_CONTRACT, "main", args.as_bytes());
            let (wire, tx_hash, k_tx) =
                seal_signed_tx(&signed, &[22u8; 32], pk_tx, &mut rng).expect("seal");
            Prepared {
                wire,
                tx_hash,
                k_tx,
            }
        })
        .collect()
}

/// The running balance after transactions `0..=i` of [`prepare_stream`].
fn expected_balance(i: usize) -> u64 {
    (0..=i).map(|k| (k as u64 % 97) + 1).sum()
}

// ── the centerpiece: crash mid-stream under network faults ──────────────

#[test]
fn crash_mid_stream_under_faults_loses_nothing_and_executes_once() {
    const TOTAL: usize = 30;
    const CRASH_AT: usize = 15;
    let seed = 31;
    let wal = temp_path("midstream.wal");
    let _ = std::fs::remove_file(&wal);

    // Phase 1: a durable node behind an interrupting-fault proxy.
    let server1 = NodeServer::spawn(
        demo_node_with(demo_platform(seed), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        chaos_config(Some(wal.clone())),
    )
    .expect("server 1 spawns");
    let port = server1.addr().port();
    let pk_tx = server1.node().read().expect("node lock").pk_tx();
    let stream = prepare_stream(&pk_tx, TOTAL);

    // Interrupt-only faults (close/drop/truncate/delay): bytes that get
    // through are intact, so every mangling surfaces as a clean transport
    // error the retry layer can absorb — strict invariants stay checkable.
    let plan = FaultPlan {
        drop_per_mille: 15, // each drop costs one conn-timeout stall
        ..FaultPlan::interrupting(0xC4A05)
    };
    let proxy = FaultProxy::spawn(server1.addr(), plan).expect("proxy spawns");
    let client = ClientConfig::new()
        .endpoint(proxy.addr())
        .pool_size(2)
        .conn_timeout(Duration::from_secs(2))
        .retry(RetryPolicy {
            max_attempts: 30,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            ..RetryPolicy::default()
        })
        .connect()
        .expect("client");

    let mut receipts: Vec<Vec<u8>> = Vec::with_capacity(TOTAL);
    for p in &stream[..CRASH_AT] {
        let (sealed, bytes) = client
            .submit_with_retry(&p.wire)
            .expect("pre-crash tx commits through faults");
        assert!(sealed);
        receipts.push(bytes);
    }

    // Phase 2: crash. Drop the process state; the WAL file (fsync'd
    // before every acknowledgement) is all that survives. Scribble a torn
    // record-group tail on it — a crash mid-append of a block that was
    // never acknowledged to anyone.
    drop(server1);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal)
            .expect("open wal for torn append");
        f.write_all(&[0x10, 0xde, 0xad, 0xbe, 0xef])
            .expect("torn tail");
    }

    // Phase 3: recover — same deterministic bootstrap, then WAL replay.
    let mut node2 = demo_node_with(demo_platform(seed), demo_keys(seed), seed);
    let log = std::fs::read(&wal).expect("read wal");
    let report = node2.recover_from_wal(&log).expect("recovery succeeds");
    assert_eq!(
        report.blocks_replayed, CRASH_AT as u64,
        "one block per acknowledged tx"
    );
    assert!(report.torn_bytes > 0, "the scribbled tail was detected");

    // Respawn on the same port: the proxy (whose upstream address is
    // fixed) and the gateway (whose pooled sockets are now stale) both
    // carry over untouched.
    let server2 = NodeServer::spawn(node2, ("127.0.0.1", port), chaos_config(Some(wal.clone())))
        .expect("server 2 spawns on the old port");

    // Invariant 1: no committed receipt lost — every acknowledged
    // transaction's receipt survived the crash, byte for byte.
    for (i, p) in stream[..CRASH_AT].iter().enumerate() {
        let stored = client
            .with_conn(|c| c.get_receipt(&p.tx_hash))
            .expect("receipt fetch after recovery")
            .unwrap_or_else(|| panic!("receipt {i} lost in the crash"));
        assert_eq!(stored, receipts[i], "receipt {i} changed across recovery");
    }

    // Invariant 2: no double execution — resubmitting an already
    // committed transaction returns the stored receipt via the wire-hash
    // index instead of executing again.
    for (i, p) in stream[..CRASH_AT].iter().enumerate() {
        let (sealed, bytes) = client
            .submit_with_retry(&p.wire)
            .expect("resubmit after recovery");
        assert!(sealed);
        assert_eq!(bytes, receipts[i], "resubmit {i} re-executed");
    }
    assert!(
        server2.stats().deduped.load(Ordering::Relaxed) >= CRASH_AT as u64,
        "resubmissions were not deduplicated"
    );

    // Phase 4: finish the stream through the same faulty proxy.
    for p in &stream[CRASH_AT..] {
        let (sealed, bytes) = client
            .submit_with_retry(&p.wire)
            .expect("post-crash tx commits");
        assert!(sealed);
        receipts.push(bytes);
    }

    // Every receipt decrypts and carries the exactly-once running
    // balance: a double execution anywhere would shift every later sum.
    for (i, p) in stream.iter().enumerate() {
        let receipt = Receipt::open(&receipts[i], &p.k_tx, &p.tx_hash).expect("receipt opens");
        assert!(receipt.success, "tx {i} failed");
        assert_eq!(
            receipt.return_data,
            expected_balance(i).to_string().into_bytes(),
            "tx {i}: balance drifted (double execution?)"
        );
    }

    // Invariant 3: final state byte-identical to a fault-free run of the
    // same stream (same per-block boundaries: one tx per block).
    let fault_root = server2.node().read().expect("node lock").state_root();
    let fault_height = server2.node().read().expect("node lock").blocks.height();
    drop(server2);
    drop(proxy);

    let clean = NodeServer::spawn(
        demo_node_with(demo_platform(seed), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        chaos_config(None),
    )
    .expect("clean server spawns");
    let mut conn = Conn::connect(clean.addr()).expect("connect");
    for p in &stream {
        let (sealed, _) = conn.submit_wait(&p.wire).expect("clean commit");
        assert!(sealed);
    }
    let clean_root = clean.node().read().expect("node lock").state_root();
    let clean_height = clean.node().read().expect("node lock").blocks.height();
    assert_eq!(fault_height, clean_height, "chain heights diverged");
    assert_eq!(
        fault_root, clean_root,
        "state roots diverged between faulty and fault-free runs"
    );

    assert!(
        proxy_touched_something(&client),
        "the fault schedule never fired — test proved nothing"
    );
    let _ = std::fs::remove_file(&wal);
}

/// The chaos run must actually have been chaotic: the client redialed
/// or retried at least once.
fn proxy_touched_something(client: &Client) -> bool {
    let s = client.retry_stats();
    s.retries.load(Ordering::Relaxed) > 0 || s.redials.load(Ordering::Relaxed) > 0
}

// ── satellite: transparent client redial across a restart ───────────────

#[test]
fn client_redials_transparently_after_server_restart() {
    let seed = 33;
    let server1 = NodeServer::spawn(
        demo_node_with(demo_platform(seed), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        chaos_config(None),
    )
    .expect("server 1 spawns");
    let port = server1.addr().port();
    let addr = server1.addr();

    let client = ClientConfig::new()
        .endpoint(addr)
        .pool_size(1)
        .connect()
        .expect("client");
    // First call pools its connection.
    let pk1 = client.with_conn(|c| c.fetch_pk_tx()).expect("first call");

    // Kill the server between the two calls; its handler threads exit
    // within the read timeout and close the pooled socket's far end.
    drop(server1);
    std::thread::sleep(Duration::from_millis(400));
    let server2 = NodeServer::spawn(
        demo_node_with(demo_platform(seed), demo_keys(seed), seed),
        ("127.0.0.1", port),
        chaos_config(None),
    )
    .expect("server 2 spawns on the old port");

    // Second call leases the now-stale pooled connection, hits a
    // transport error, and must transparently redial — not surface the
    // stale-pool artifact to the caller.
    let pk2 = client
        .with_conn(|c| c.fetch_pk_tx())
        .expect("second call survives the restart");
    assert_eq!(pk1, pk2, "same deterministic node key across restarts");
    assert_eq!(
        client.retry_stats().redials.load(Ordering::Relaxed),
        1,
        "exactly one transparent redial"
    );
    drop(server2);
}

// ── satellite: typed exhaustion when the server never comes back ────────

#[test]
fn submit_with_retry_exhausts_with_typed_error_when_server_stays_down() {
    let seed = 35;
    let server = NodeServer::spawn(
        demo_node_with(demo_platform(seed), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        chaos_config(None),
    )
    .expect("server spawns");
    let pk_tx = server.node().read().expect("node lock").pk_tx();
    let stream = prepare_stream(&pk_tx, 1);
    let addr = server.addr();
    drop(server); // gone for good

    let client = ClientConfig::new()
        .endpoint(addr)
        .pool_size(1)
        .conn_timeout(Duration::from_millis(200))
        .retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        })
        .connect()
        .expect("client");
    match client.submit_with_retry(&stream[0].wire) {
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::Retries, "wrong kind: {e}");
            assert!(e.to_string().contains("3 attempts"), "got: {e}");
            // The source chain keeps the final attempt's transport error.
            let src = std::error::Error::source(&e).expect("source preserved");
            let last = src.to_string();
            assert!(
                last.contains("frame") || last.contains("disconnected"),
                "last error should be transport-level, got {last}"
            );
        }
        other => panic!("expected a Retries error, got {other:?}"),
    }
    assert_eq!(client.retry_stats().exhausted.load(Ordering::Relaxed), 1);
}

// ── satellite: enclave rejoin over the wire ─────────────────────────────

#[test]
fn wire_rejoin_recovers_node_keys_from_a_surviving_member() {
    let seed = 37;
    let platform = demo_platform(seed);
    let mut config = chaos_config(None);
    config.join_roots = vec![platform.attestation_public_key()];
    let member = NodeServer::spawn(
        demo_node_with(platform.clone(), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        config,
    )
    .expect("member spawns");
    let member_root = member.node().read().expect("node lock").attestation_root();
    let member_pk_tx = member.node().read().expect("node lock").pk_tx();

    // The crashed node's sealed blob is gone (disk wiped); rebuild the
    // platform deterministically and run the K-Protocol MAP join over
    // the live socket.
    let joiner_platform = demo_platform(seed);
    let mut conn = Conn::connect(member.addr()).expect("connect");
    let keys = conn
        .rejoin(&joiner_platform, &member_root, 1, 1, 0xbeef)
        .expect("wire rejoin succeeds");
    assert_eq!(
        keys.pk_tx(),
        member_pk_tx,
        "rejoined keys must reproduce the consortium envelope key"
    );
    assert_eq!(member.stats().joins.load(Ordering::Relaxed), 1);

    // And the recovered keys stand up a fully working replica: it serves
    // the same pk_tx, so clients' sealed envelopes decrypt on it.
    let replica = demo_node_with(demo_platform(seed + 1000), keys, seed);
    assert_eq!(replica.pk_tx(), member_pk_tx);
}

#[test]
fn wire_rejoin_is_refused_without_registered_roots_or_at_stale_svn() {
    let seed = 39;
    let platform = demo_platform(seed);

    // Joins disabled (no registered roots): typed reject.
    let closed = NodeServer::spawn(
        demo_node_with(platform.clone(), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        chaos_config(None),
    )
    .expect("closed member spawns");
    let root = closed.node().read().expect("node lock").attestation_root();
    let mut conn = Conn::connect(closed.addr()).expect("connect");
    match conn.rejoin(&demo_platform(seed), &root, 1, 1, 0x01) {
        Err(NetError::Rejected(r)) => assert!(r.contains("disabled"), "got: {r}"),
        Ok(_) => panic!("join succeeded with no registered roots"),
        Err(other) => panic!("expected Rejected, got {other:?}"),
    }
    drop(closed);

    // Member demands SVN ≥ 2: a joiner quoting SVN 1 is refused — the
    // rollback-protection floor reaches across the wire.
    let mut config = chaos_config(None);
    config.join_roots = vec![platform.attestation_public_key()];
    config.join_min_svn = 2;
    let strict = NodeServer::spawn(
        demo_node_with(platform.clone(), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        config,
    )
    .expect("strict member spawns");
    let root = strict.node().read().expect("node lock").attestation_root();
    let mut conn = Conn::connect(strict.addr()).expect("connect");
    match conn.rejoin(&demo_platform(seed), &root, 1, 2, 0x02) {
        Err(NetError::Rejected(r)) => assert!(r.contains("join refused"), "got: {r}"),
        Ok(_) => panic!("stale-SVN join succeeded"),
        Err(other) => panic!("expected Rejected for stale SVN, got {other:?}"),
    }
}

// ── satellite: crash-after hook is exercised end to end by check.sh ─────
//
// The `confide-node --crash-after` process-level chaos path (spawn,
// kill at block N, restart, parse the RECOVERED line) runs in
// scripts/check.sh where real processes are cheap; here we pin down the
// pieces it composes: WAL-before-ack ordering above, and the in-flight
// duplicate guard below.

#[test]
fn in_flight_duplicate_is_turned_away_busy_not_executed_twice() {
    let seed = 41;
    // A server whose execute stage lingers long enough that the first
    // copy is still in flight when the duplicate arrives.
    let mut config = chaos_config(None);
    config.batch_linger = Duration::from_millis(300);
    let server = NodeServer::spawn(
        demo_node_with(demo_platform(seed), demo_keys(seed), seed),
        ("127.0.0.1", 0),
        config,
    )
    .expect("server spawns");
    let pk_tx = server.node().read().expect("node lock").pk_tx();
    let stream = prepare_stream(&pk_tx, 1);

    // First copy: fire-and-forget, so it sits in the lingering batch.
    let mut c1 = Conn::connect(server.addr()).expect("connect");
    c1.submit(&stream[0].wire).expect("first copy accepted");
    // Second copy on another connection while the first is in flight.
    let mut c2 = Conn::connect(server.addr()).expect("connect");
    match c2.submit(&stream[0].wire) {
        Err(NetError::Busy) => {}
        other => panic!("in-flight duplicate not turned away: {other:?}"),
    }

    // After commit, the same bytes resolve from the committed index.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if server.stats().committed.load(Ordering::Relaxed) >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "commit never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (sealed, bytes) = c2.submit_wait(&stream[0].wire).expect("dedup reply");
    assert!(sealed);
    let receipt =
        Receipt::open(&bytes, &stream[0].k_tx, &stream[0].tx_hash).expect("receipt opens");
    assert_eq!(receipt.return_data, b"1", "executed more than once");
    assert!(server.stats().deduped.load(Ordering::Relaxed) >= 1);
}

/// Spawn a tiny echo upstream (every byte read is written straight
/// back) accepting any number of connections; returns its address.
fn echo_upstream() -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind echo");
    let addr = listener.local_addr().expect("echo addr");
    std::thread::spawn(move || {
        while let Ok((mut s, _)) = listener.accept() {
            std::thread::spawn(move || {
                let mut back = s.try_clone().expect("clone echo stream");
                let mut buf = [0u8; 4096];
                loop {
                    match std::io::Read::read(&mut s, &mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => {
                            if std::io::Write::write_all(&mut back, &buf[..n]).is_err() {
                                return;
                            }
                        }
                    }
                }
            });
        }
    });
    addr
}

/// Satellite: the symmetric `partition` preset. One proxy-wide chunk
/// clock governs both directions of every connection, so a window
/// `[from, until)` cuts the link completely — requests vanish on the
/// way up, responses on the way down — and heals on its own once
/// enough chunks have ticked past the end of the window.
#[test]
fn partition_preset_blackholes_both_directions_then_heals() {
    use std::io::{Read, Write};

    let upstream = echo_upstream();

    // Window [2, 6): round 0 (chunks 0 and 1) flows, then four chunks
    // are blackholed, then the link heals. In lockstep rounds every
    // delivered round costs two ticks (request + echo) while a
    // blackholed request costs one (the echo never happens).
    let mut proxy = FaultProxy::spawn(upstream, FaultPlan::partition(901, 2, 6)).expect("proxy");
    let mut link = std::net::TcpStream::connect(proxy.addr()).expect("connect via proxy");
    link.set_read_timeout(Some(Duration::from_millis(250)))
        .expect("read timeout");

    let mut buf = [0u8; 8];
    link.write_all(b"r0").expect("write r0");
    link.read_exact(&mut buf[..2])
        .expect("pre-partition round echoes");
    assert_eq!(&buf[..2], b"r0");

    for round in 1..=4u32 {
        link.write_all(format!("r{round}").as_bytes())
            .expect("write");
        assert!(
            link.read(&mut buf).is_err(),
            "round {round} should be blackholed"
        );
    }

    link.write_all(b"r5").expect("write r5");
    link.read_exact(&mut buf[..2])
        .expect("post-heal round echoes");
    assert_eq!(
        &buf[..2],
        b"r5",
        "blackholed chunks are dropped, not delayed"
    );
    assert_eq!(proxy.stats().partitioned.load(Ordering::Relaxed), 4);
    proxy.shutdown();

    // The same clock cuts the *response* direction: with window [1, 2)
    // the first request reaches the upstream but its echo is swallowed;
    // the next round flows both ways and returns only its own payload.
    let mut proxy = FaultProxy::spawn(upstream, FaultPlan::partition(902, 1, 2)).expect("proxy");
    let mut link = std::net::TcpStream::connect(proxy.addr()).expect("connect via proxy");
    link.set_read_timeout(Some(Duration::from_millis(250)))
        .expect("read timeout");
    link.write_all(b"aa").expect("write aa");
    assert!(link.read(&mut buf).is_err(), "echo of aa is cut downstream");
    link.write_all(b"bb").expect("write bb");
    link.read_exact(&mut buf[..2]).expect("healed round echoes");
    assert_eq!(&buf[..2], b"bb");
    assert_eq!(proxy.stats().partitioned.load(Ordering::Relaxed), 1);
    proxy.shutdown();
}
