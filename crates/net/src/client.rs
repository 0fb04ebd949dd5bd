//! Client SDK: framed transport and the unified pooled client.
//!
//! Two layers, outermost first:
//!
//! * [`Client`] — **the** public client: a connection pool over one or
//!   more endpoints, optional sealing identity, retry policy, and
//!   leader-redirect chasing, configured by [`ClientConfig`]. Every
//!   method returns the consolidated [`crate::error::Error`].
//! * [`Conn`] — one framed request/response TCP connection; the raw
//!   protocol surface (used directly by protocol tests and by `Client`
//!   internally). Returns the wire-level [`NetError`].
//!
//! The envelope-sealing path is **shared** with the in-process client
//! ([`confide_core::client::seal_signed_tx`]) so the networked and
//! in-process code cannot drift: same `k_tx` derivation, same AAD, same
//! envelope layout.

use crate::error::Error;
use crate::frame::{read_frame, write_frame, FrameError, Message};
use confide_core::client::ConfideClient;
use confide_core::receipt::Receipt;
use confide_core::seal_signed_tx;
use confide_core::tx::WireTx;
use confide_crypto::ed25519::VerifyingKey;
use confide_crypto::HmacDrbg;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wire-level client failures (the [`Conn`] surface). The unified
/// [`Client`] wraps these into [`crate::error::Error`] with a typed kind
/// and preserved source chain.
#[derive(Debug)]
pub enum NetError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// Server closed the connection instead of answering.
    Disconnected,
    /// The server answered with a kind the request cannot accept.
    UnexpectedReply(u8),
    /// The server rejected the request.
    Rejected(String),
    /// The server reported queue-full backpressure.
    Busy,
    /// Envelope/receipt cryptography failed.
    Crypto,
    /// The attestation report failed verification — `pk_tx` is not to be
    /// trusted (possible MITM key substitution).
    Attestation(String),
    /// The client's connection pool stayed at its cap for the whole
    /// `pool_wait` window — every lease is held and none came back.
    PoolExhausted,
    /// The node is a cluster follower; submissions belong at `leader`.
    NotPrimary(String),
    /// Every attempt of a retrying submit failed with a transient error;
    /// `last` is the final attempt's failure.
    RetriesExhausted {
        /// How many attempts were made.
        attempts: u32,
        /// The error the final attempt died with.
        last: Box<NetError>,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "frame: {e}"),
            NetError::Disconnected => f.write_str("server disconnected"),
            NetError::UnexpectedReply(k) => write!(f, "unexpected reply kind {k:#04x}"),
            NetError::Rejected(r) => write!(f, "rejected: {r}"),
            NetError::Busy => f.write_str("server busy (queue full)"),
            NetError::Crypto => f.write_str("cryptographic failure"),
            NetError::Attestation(e) => write!(f, "attestation: {e}"),
            NetError::NotPrimary(leader) => write!(f, "not primary; leader is {leader}"),
            NetError::PoolExhausted => f.write_str("pool exhausted (lease wait timed out)"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Frame(e) => Some(e),
            NetError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

/// A framed request/response transport over one TCP connection.
pub struct Conn {
    stream: TcpStream,
    max_frame: usize,
}

impl Conn {
    /// Connect with default timeouts (10 s read/write).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Conn, NetError> {
        Conn::connect_timeout(addr, Duration::from_secs(10))
    }

    /// Connect with explicit socket timeouts.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Conn, NetError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(FrameError::Io)?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(FrameError::Io)?;
        Ok(Conn {
            stream,
            max_frame: crate::frame::DEFAULT_MAX_FRAME,
        })
    }

    /// Send one message without waiting for the reply (pipelining).
    pub fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        write_frame(&mut self.stream, msg)?;
        Ok(())
    }

    /// Read one reply frame.
    pub fn recv(&mut self) -> Result<Message, NetError> {
        match read_frame(&mut self.stream, self.max_frame)? {
            Some(msg) => Ok(msg),
            None => Err(NetError::Disconnected),
        }
    }

    /// One request/response round trip.
    pub fn request(&mut self, msg: &Message) -> Result<Message, NetError> {
        self.send(msg)?;
        self.recv()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.request(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(NetError::UnexpectedReply(other.kind())),
        }
    }

    /// Fetch `pk_tx`.
    pub fn fetch_pk_tx(&mut self) -> Result<[u8; 32], NetError> {
        match self.request(&Message::GetPkTx)? {
            Message::PkTxIs(pk) => Ok(pk),
            Message::Rejected(r) => Err(NetError::Rejected(r)),
            other => Err(NetError::UnexpectedReply(other.kind())),
        }
    }

    /// Fetch `pk_tx` **and** verify the attestation report that binds it
    /// to the CS-enclave build (§3.2.2): the report must be signed by
    /// `attestation_root`, measure `expected_mrenclave` at ≥ `min_svn`,
    /// and carry `sha256(pk_tx)` in its `report_data`. This is the
    /// MITM-substitution defence — a gateway handing out its own key
    /// fails the fingerprint check.
    pub fn fetch_pk_tx_attested(
        &mut self,
        attestation_root: &VerifyingKey,
        expected_mrenclave: &[u8; 32],
        min_svn: u16,
    ) -> Result<[u8; 32], NetError> {
        let pk = self.fetch_pk_tx()?;
        let report = match self.request(&Message::GetAttestation)? {
            Message::AttestationIs(r) => r,
            Message::Rejected(r) => return Err(NetError::Rejected(r)),
            other => return Err(NetError::UnexpectedReply(other.kind())),
        };
        report
            .verify(attestation_root, expected_mrenclave, min_svn)
            .map_err(|e| NetError::Attestation(e.to_string()))?;
        if report.report_data[..32] != confide_crypto::sha256(&pk) {
            return Err(NetError::Attestation(
                "pk_tx fingerprint mismatch in report_data".into(),
            ));
        }
        Ok(pk)
    }

    /// Submit fire-and-forget; `Ok` carries the wire hash.
    pub fn submit(&mut self, tx: &WireTx) -> Result<[u8; 32], NetError> {
        match self.request(&Message::SubmitTx(tx.clone()))? {
            Message::Accepted(h) => Ok(h),
            Message::Busy => Err(NetError::Busy),
            Message::Rejected(r) => Err(NetError::Rejected(r)),
            Message::NotPrimary { leader } => Err(NetError::NotPrimary(leader)),
            other => Err(NetError::UnexpectedReply(other.kind())),
        }
    }

    /// Submit and block until the containing block commits; returns
    /// `(sealed, receipt_bytes)`.
    pub fn submit_wait(&mut self, tx: &WireTx) -> Result<(bool, Vec<u8>), NetError> {
        match self.request(&Message::SubmitTxWait(tx.clone()))? {
            Message::Committed { sealed, receipt } => Ok((sealed, receipt)),
            Message::Busy => Err(NetError::Busy),
            Message::Rejected(r) => Err(NetError::Rejected(r)),
            Message::NotPrimary { leader } => Err(NetError::NotPrimary(leader)),
            other => Err(NetError::UnexpectedReply(other.kind())),
        }
    }

    /// Fetch the node's live status line (height, state root, and — on a
    /// cluster member — view/leader/sync counters).
    pub fn status(&mut self) -> Result<crate::frame::NodeStatus, NetError> {
        match self.request(&Message::GetStatus)? {
            Message::StatusIs(s) => Ok(s),
            Message::Rejected(r) => Err(NetError::Rejected(r)),
            other => Err(NetError::UnexpectedReply(other.kind())),
        }
    }

    /// Re-obtain the consortium's `NodeKeys` over the wire: the K-Protocol
    /// MAP join (§5.3) against a surviving member. The joiner's KM enclave
    /// quotes an ephemeral X25519 key, the member counter-quotes and wraps
    /// `(sk_tx, k_states)` to it, and the joiner verifies the member's
    /// quote against `member_attestation_root` (the consortium-registered
    /// root it trusts out of band) before unwrapping. No key material ever
    /// crosses the wire outside the attested wrap blob.
    pub fn rejoin(
        &mut self,
        joiner_platform: &std::sync::Arc<confide_tee::platform::TeePlatform>,
        member_attestation_root: &VerifyingKey,
        svn: u16,
        min_svn: u16,
        seed: u64,
    ) -> Result<confide_core::keys::NodeKeys, NetError> {
        let pk_tx = self.fetch_pk_tx()?;
        let (session, offer) = confide_core::keys::begin_join(joiner_platform, svn, &pk_tx, seed)
            .map_err(|e| NetError::Attestation(e.to_string()))?;
        let reply = self.request(&Message::JoinRequest {
            eph_pk: offer.eph_pk,
            report: offer.report,
        })?;
        match reply {
            Message::JoinApprove {
                blob,
                member_report,
            } => confide_core::keys::finish_join(
                session,
                joiner_platform,
                member_attestation_root,
                &member_report,
                min_svn,
                svn,
                &blob,
            )
            .map_err(|e| NetError::Attestation(e.to_string())),
            Message::Rejected(r) => Err(NetError::Rejected(r)),
            other => Err(NetError::UnexpectedReply(other.kind())),
        }
    }

    /// Fetch the stored receipt bytes for `tx_hash`, `None` if not (yet)
    /// committed.
    pub fn get_receipt(&mut self, tx_hash: &[u8; 32]) -> Result<Option<Vec<u8>>, NetError> {
        match self.request(&Message::GetReceipt(*tx_hash))? {
            Message::ReceiptIs(bytes) => Ok(Some(bytes)),
            Message::NotFound => Ok(None),
            Message::Rejected(r) => Err(NetError::Rejected(r)),
            other => Err(NetError::UnexpectedReply(other.kind())),
        }
    }
}

/// Retry/redial counters a client accumulates over its lifetime
/// (surfaced in the loadgen JSON report).
#[derive(Debug, Default)]
pub struct RetryStats {
    /// Attempts beyond the first inside a retrying submit.
    pub retries: std::sync::atomic::AtomicU64,
    /// Retrying submits that ran out of attempts.
    pub exhausted: std::sync::atomic::AtomicU64,
    /// Stale pooled connections transparently replaced by a fresh dial.
    pub redials: std::sync::atomic::AtomicU64,
    /// `NotPrimary` redirects chased to the advertised leader.
    pub redirects: std::sync::atomic::AtomicU64,
}

/// Capped exponential backoff with deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream (so two clients hammering
    /// a recovering node desynchronise without true randomness).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(320),
            jitter_seed: 0x7265747279, // "retry"
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based): capped
    /// `base * 2^retry` plus up to 50% deterministic jitter.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        let mut x = self
            .jitter_seed
            .wrapping_add((retry as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let half = exp.as_nanos() as u64 / 2;
        let jitter = if half == 0 { 0 } else { x % half };
        exp + Duration::from_nanos(jitter)
    }
}

/// Is this failure worth retrying? `Busy` is explicit backpressure and
/// transport-level failures may be a node mid-restart; protocol verdicts
/// (`Rejected`, attestation failures) are final.
fn transient(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Busy | NetError::Frame(_) | NetError::Disconnected | NetError::PoolExhausted
    )
}

/// Configuration for the unified [`Client`]. Setters chain;
/// [`ClientConfig::connect`] validates and builds.
///
/// ```no_run
/// use confide_net::client::ClientConfig;
/// let client = ClientConfig::new()
///     .endpoint("127.0.0.1:9000")
///     .endpoint("127.0.0.1:9001")
///     .pool_size(4)
///     .identity([1u8; 32], [2u8; 32], 3)
///     .connect()
///     .expect("client");
/// ```
#[derive(Debug, Clone)]
pub struct ClientConfig {
    endpoints: Vec<String>,
    pool_size: usize,
    pool_wait: Duration,
    conn_timeout: Duration,
    retry: RetryPolicy,
    chase_redirects: bool,
    max_redirect_hops: usize,
    identity: Option<([u8; 32], [u8; 32], u64)>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            endpoints: Vec::new(),
            pool_size: 4,
            pool_wait: Duration::from_secs(5),
            conn_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            chase_redirects: true,
            max_redirect_hops: 4,
            identity: None,
        }
    }
}

impl ClientConfig {
    /// Start from defaults (pool of 4, 10 s dial timeout, redirect
    /// chasing on, default retry policy, no endpoints, no identity).
    pub fn new() -> ClientConfig {
        ClientConfig::default()
    }

    /// Add one endpoint (`host:port`). At least one is required.
    pub fn endpoint(mut self, addr: impl ToString) -> Self {
        self.endpoints.push(addr.to_string());
        self
    }

    /// Replace the endpoint list.
    pub fn endpoints<T: ToString>(mut self, addrs: impl IntoIterator<Item = T>) -> Self {
        self.endpoints = addrs.into_iter().map(|a| a.to_string()).collect();
        self
    }

    /// Cap on concurrently open sockets (default 4, clamped to ≥ 1).
    pub fn pool_size(mut self, n: usize) -> Self {
        self.pool_size = n.max(1);
        self
    }

    /// How long a lease may wait for a pooled connection before failing
    /// with a typed pool error (default 5 s).
    pub fn pool_wait(mut self, d: Duration) -> Self {
        self.pool_wait = d;
        self
    }

    /// Socket dial/read/write timeout (default 10 s).
    pub fn conn_timeout(mut self, d: Duration) -> Self {
        self.conn_timeout = d;
        self
    }

    /// Retry policy for [`Client::submit_with_retry`] and
    /// [`Client::call_confidential`].
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Whether a `NotPrimary` redirect is chased to the advertised
    /// leader automatically (default `true`).
    pub fn chase_redirects(mut self, yes: bool) -> Self {
        self.chase_redirects = yes;
        self
    }

    /// Attach a sealing identity (signing seed, user root key, RNG
    /// seed) — required for [`Client::seal`] and
    /// [`Client::call_confidential`].
    pub fn identity(mut self, identity_seed: [u8; 32], root_key: [u8; 32], rng_seed: u64) -> Self {
        self.identity = Some((identity_seed, root_key, rng_seed));
        self
    }

    /// Validate and build the client. No I/O happens here beyond
    /// endpoint resolution; sockets are dialed lazily on first use.
    pub fn connect(self) -> Result<Client, Error> {
        use crate::error::ErrorKind;
        if self.endpoints.is_empty() {
            return Err(Error::new(
                ErrorKind::Config,
                "ClientConfig requires at least one endpoint",
            ));
        }
        let mut resolved = Vec::with_capacity(self.endpoints.len());
        for ep in &self.endpoints {
            let addr = ep
                .to_socket_addrs()
                .map_err(|e| {
                    Error::new(ErrorKind::Config, format!("cannot resolve endpoint {ep}"))
                        .with_source(e)
                })?
                .next()
                .ok_or_else(|| {
                    Error::new(
                        ErrorKind::Config,
                        format!("endpoint {ep} resolved to no address"),
                    )
                })?;
            resolved.push(addr);
        }
        Ok(Client::build(resolved, self))
    }
}

struct PoolState {
    /// Idle connections, each tagged with the endpoint it is dialed to.
    idle: Vec<(SocketAddr, Conn)>,
    open: usize,
}

struct SealState {
    inner: ConfideClient,
    root_key: [u8; 32],
    rng: HmacDrbg,
    pk_tx: Option<[u8; 32]>,
}

/// The unified networked client: a bounded connection pool over one or
/// more endpoints, an optional sealing identity, a retry policy, and
/// automatic leader-redirect chasing, in one surface; build it with
/// [`ClientConfig`].
///
/// Thread-safe: all methods take `&self`; share one client across
/// workers via `Arc`.
pub struct Client {
    endpoints: Vec<SocketAddr>,
    /// Where requests go right now — updated when a redirect is chased
    /// or an endpoint stops answering.
    current: Mutex<SocketAddr>,
    pool: Mutex<PoolState>,
    available: Condvar,
    max_conns: usize,
    pool_wait: Duration,
    conn_timeout: Duration,
    retry: RetryPolicy,
    chase_redirects: bool,
    max_redirect_hops: usize,
    stats: RetryStats,
    /// Attested `pk_tx`, cached **per endpoint address**. In a
    /// multi-node pool every member quotes from its own platform, so an
    /// attestation verified against one endpoint must never be reused
    /// as the verdict for another.
    attested_pk: Mutex<HashMap<SocketAddr, [u8; 32]>>,
    seal_state: Option<Mutex<SealState>>,
}

impl Client {
    fn build(endpoints: Vec<SocketAddr>, cfg: ClientConfig) -> Client {
        Client {
            current: Mutex::new(endpoints[0]),
            endpoints,
            pool: Mutex::new(PoolState {
                idle: Vec::new(),
                open: 0,
            }),
            available: Condvar::new(),
            max_conns: cfg.pool_size.max(1),
            pool_wait: cfg.pool_wait,
            conn_timeout: cfg.conn_timeout,
            retry: cfg.retry,
            chase_redirects: cfg.chase_redirects,
            max_redirect_hops: cfg.max_redirect_hops,
            stats: RetryStats::default(),
            attested_pk: Mutex::new(HashMap::new()),
            seal_state: cfg.identity.map(|(id, root, rng_seed)| {
                Mutex::new(SealState {
                    inner: ConfideClient::new(id, root, rng_seed),
                    root_key: root,
                    rng: HmacDrbg::from_u64(rng_seed ^ 0x6e65742d636c69), // "net-cli"
                    pk_tx: None,
                })
            }),
        }
    }

    /// The configured endpoints.
    pub fn endpoints(&self) -> &[SocketAddr] {
        &self.endpoints
    }

    /// The endpoint requests are currently routed to (moves when a
    /// `NotPrimary` redirect is chased).
    pub fn current_endpoint(&self) -> SocketAddr {
        *self.current.lock().expect("endpoint lock")
    }

    /// Lifetime retry/redial/redirect counters.
    pub fn retry_stats(&self) -> &RetryStats {
        &self.stats
    }

    // ---- pooled transport (wire-level internals, NetError) ----------

    /// Lease a connection to `addr`; the boolean is `true` when it came
    /// out of the idle pool (and may have died while parked).
    fn lease(&self, addr: SocketAddr) -> Result<(Conn, bool), NetError> {
        let deadline = Instant::now() + self.pool_wait;
        let mut state = self.pool.lock().expect("pool lock");
        loop {
            if let Some(pos) = state.idle.iter().position(|(a, _)| *a == addr) {
                let (_, conn) = state.idle.swap_remove(pos);
                return Ok((conn, true));
            }
            // An idle socket to the *wrong* endpoint is worth less than
            // a fresh dial to the right one: evict it to free a slot.
            if state.open >= self.max_conns {
                if state.idle.pop().is_some() {
                    state.open -= 1;
                } else {
                    // Every slot is leased out. Bounded wait.
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(NetError::PoolExhausted);
                    }
                    let (guard, timeout) =
                        self.available.wait_timeout(state, left).expect("pool lock");
                    state = guard;
                    if timeout.timed_out() && state.idle.is_empty() && state.open >= self.max_conns
                    {
                        return Err(NetError::PoolExhausted);
                    }
                    continue;
                }
            }
            state.open += 1;
            drop(state);
            return match Conn::connect_timeout(addr, self.conn_timeout) {
                Ok(conn) => Ok((conn, false)),
                Err(e) => {
                    self.pool.lock().expect("pool lock").open -= 1;
                    self.available.notify_one();
                    Err(e)
                }
            };
        }
    }

    fn give_back(&self, conn: Option<(SocketAddr, Conn)>) {
        let mut state = self.pool.lock().expect("pool lock");
        match conn {
            Some(tagged) => state.idle.push(tagged),
            None => state.open -= 1, // connection died; allow a fresh dial
        }
        self.available.notify_one();
    }

    /// Register a fresh dial outside the lease path (replacing a pooled
    /// connection that turned out to be dead).
    fn dial_fresh(&self, addr: SocketAddr) -> Result<Conn, NetError> {
        self.pool.lock().expect("pool lock").open += 1;
        match Conn::connect_timeout(addr, self.conn_timeout) {
            Ok(conn) => Ok(conn),
            Err(e) => {
                self.pool.lock().expect("pool lock").open -= 1;
                self.available.notify_one();
                Err(e)
            }
        }
    }

    /// Run `f` on a leased connection to `addr`. On transport-level
    /// failure the connection is discarded; if it was a *pooled*
    /// connection (which may have died while idle — e.g. the server
    /// restarted), a fresh socket is dialed and `f` runs once more, so
    /// callers never see a stale-pool artifact as an error.
    /// Protocol-level outcomes (`Busy`, `Rejected`) keep the connection
    /// pooled.
    fn with_conn_at<R>(
        &self,
        addr: SocketAddr,
        f: &mut impl FnMut(&mut Conn) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        let (mut conn, reused) = self.lease(addr)?;
        let result = f(&mut conn);
        match &result {
            Err(NetError::Frame(_)) | Err(NetError::Disconnected) => {
                self.give_back(None);
                if !reused {
                    return result;
                }
                // The pooled socket was stale; retry once on a fresh dial.
                self.stats
                    .redials
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let mut conn = self.dial_fresh(addr)?;
                let retry = f(&mut conn);
                match &retry {
                    Err(NetError::Frame(_)) | Err(NetError::Disconnected) => self.give_back(None),
                    _ => self.give_back(Some((addr, conn))),
                }
                retry
            }
            _ => {
                self.give_back(Some((addr, conn)));
                result
            }
        }
    }

    /// Route a request: run it against the current endpoint, chase
    /// `NotPrimary` redirects (bounded hops), and fail over to the next
    /// configured endpoint when the current one stops answering.
    fn routed<R>(
        &self,
        mut f: impl FnMut(&mut Conn) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        let mut hops = 0usize;
        let mut failovers = 0usize;
        loop {
            let addr = self.current_endpoint();
            match self.with_conn_at(addr, &mut f) {
                Err(NetError::NotPrimary(leader))
                    if self.chase_redirects && hops < self.max_redirect_hops =>
                {
                    match leader.parse::<SocketAddr>() {
                        Ok(la) => {
                            hops += 1;
                            self.stats
                                .redirects
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            *self.current.lock().expect("endpoint lock") = la;
                        }
                        Err(_) => return Err(NetError::NotPrimary(leader)),
                    }
                }
                Err(e @ (NetError::Frame(_) | NetError::Disconnected))
                    if failovers + 1 < self.endpoints.len() =>
                {
                    // The endpoint is gone (restart, crash): rotate to
                    // the next configured one rather than failing the
                    // call outright.
                    failovers += 1;
                    let next = self
                        .endpoints
                        .iter()
                        .position(|a| *a == addr)
                        .map(|i| self.endpoints[(i + 1) % self.endpoints.len()])
                        .unwrap_or(self.endpoints[0]);
                    let _ = e;
                    *self.current.lock().expect("endpoint lock") = next;
                }
                other => return other,
            }
        }
    }

    // ---- public API (typed Error) -----------------------------------

    /// Run `f` on a pooled connection to the current endpoint (no
    /// redirect chasing — the raw protocol surface for tests and
    /// special-purpose calls).
    pub fn with_conn<R>(
        &self,
        mut f: impl FnMut(&mut Conn) -> Result<R, NetError>,
    ) -> Result<R, Error> {
        self.with_conn_at(self.current_endpoint(), &mut f)
            .map_err(Error::from)
    }

    /// Liveness probe against the current endpoint.
    pub fn ping(&self) -> Result<(), Error> {
        self.routed(|c| c.ping()).map_err(Error::from)
    }

    /// Fetch the node's live status line.
    pub fn status(&self) -> Result<crate::frame::NodeStatus, Error> {
        self.routed(|c| c.status()).map_err(Error::from)
    }

    /// Fetch `pk_tx` (unattested — see [`Client::pk_tx_attested`]).
    /// Cached in the sealing state when an identity is attached.
    pub fn pk_tx(&self) -> Result<[u8; 32], Error> {
        if let Some(seal) = &self.seal_state {
            if let Some(pk) = seal.lock().expect("seal lock").pk_tx {
                return Ok(pk);
            }
        }
        let pk = self.routed(|c| c.fetch_pk_tx()).map_err(Error::from)?;
        if let Some(seal) = &self.seal_state {
            seal.lock().expect("seal lock").pk_tx = Some(pk);
        }
        Ok(pk)
    }

    /// Fetch this endpoint's `pk_tx` with its attestation report
    /// verified against `attestation_root` / `expected_mrenclave` /
    /// `min_svn` — once. The verified key is cached per endpoint
    /// address, so a process pooling over several cluster members never
    /// cross-validates node A's enclave report under the verdict
    /// obtained from node B; a cache miss always re-runs the full
    /// report verification over the wire.
    pub fn pk_tx_attested(
        &self,
        attestation_root: &VerifyingKey,
        expected_mrenclave: &[u8; 32],
        min_svn: u16,
    ) -> Result<[u8; 32], Error> {
        let addr = self.current_endpoint();
        if let Some(pk) = self.attested_pk.lock().expect("pk cache lock").get(&addr) {
            return Ok(*pk);
        }
        let pk = self
            .with_conn_at(addr, &mut |c: &mut Conn| {
                c.fetch_pk_tx_attested(attestation_root, expected_mrenclave, min_svn)
            })
            .map_err(Error::from)?;
        self.attested_pk
            .lock()
            .expect("pk cache lock")
            .insert(addr, pk);
        Ok(pk)
    }

    /// Fire-and-forget submit; `Ok` carries the wire hash.
    pub fn submit(&self, tx: &WireTx) -> Result<[u8; 32], Error> {
        self.routed(|c| c.submit(tx)).map_err(Error::from)
    }

    /// Submit and block until the containing block commits; returns
    /// `(sealed, receipt_bytes)`.
    pub fn submit_wait(&self, tx: &WireTx) -> Result<(bool, Vec<u8>), Error> {
        self.routed(|c| c.submit_wait(tx)).map_err(Error::from)
    }

    /// Receipt lookup.
    pub fn get_receipt(&self, tx_hash: &[u8; 32]) -> Result<Option<Vec<u8>>, Error> {
        self.routed(|c| c.get_receipt(tx_hash)).map_err(Error::from)
    }

    /// [`Client::submit_wait`] with retries on transient failures
    /// (`Busy` backpressure, transport errors while a node restarts),
    /// backing off per the configured [`RetryPolicy`]. Safe against
    /// double execution: the server's committed-wire-hash index answers
    /// a retry of an already-committed transaction with its stored
    /// receipt. Terminal verdicts are returned immediately.
    pub fn submit_with_retry(&self, tx: &WireTx) -> Result<(bool, Vec<u8>), Error> {
        let attempts = self.retry.max_attempts.max(1);
        let mut last: Option<NetError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats
                    .retries
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(self.retry.backoff(attempt - 1));
            }
            match self.routed(|c| c.submit_wait(tx)) {
                Ok(out) => return Ok(out),
                Err(e) if transient(&e) => last = Some(e),
                Err(e) => return Err(e.into()),
            }
        }
        self.stats
            .exhausted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Err(NetError::RetriesExhausted {
            attempts,
            last: Box::new(last.unwrap_or(NetError::Busy)),
        }
        .into())
    }

    // ---- sealing API (requires an identity) -------------------------

    /// The client's address (public key of the sealing identity).
    ///
    /// # Panics
    /// When the client was built without [`ClientConfig::identity`] —
    /// a configuration error, not a runtime condition.
    pub fn address(&self) -> [u8; 32] {
        self.seal_state
            .as_ref()
            .expect("client built without an identity")
            .lock()
            .expect("seal lock")
            .inner
            .address()
    }

    /// Build a sealed confidential transaction without sending it.
    /// Returns `(wire_tx, tx_hash, k_tx)`.
    pub fn seal(
        &self,
        contract: [u8; 32],
        method: &str,
        args: &[u8],
    ) -> Result<(WireTx, [u8; 32], [u8; 32]), Error> {
        use crate::error::ErrorKind;
        let pk_tx = self.pk_tx()?;
        let seal = self.seal_state.as_ref().ok_or_else(|| {
            Error::new(
                ErrorKind::Config,
                "seal requires an identity (ClientConfig::identity)",
            )
        })?;
        let mut seal = seal.lock().expect("seal lock");
        let signed = seal.inner.build_raw(contract, method, args);
        let root_key = seal.root_key;
        seal_signed_tx(&signed, &root_key, &pk_tx, &mut seal.rng)
            .map_err(|_| Error::new(ErrorKind::Crypto, "envelope sealing failed"))
    }

    /// Seal, submit (with retries), wait for commit, and decrypt the
    /// receipt under `k_tx` — the full T-Protocol round trip.
    pub fn call_confidential(
        &self,
        contract: [u8; 32],
        method: &str,
        args: &[u8],
    ) -> Result<Receipt, Error> {
        use crate::error::ErrorKind;
        let (tx, tx_hash, k_tx) = self.seal(contract, method, args)?;
        let (sealed, receipt_bytes) = self.submit_with_retry(&tx)?;
        if !sealed {
            // A confidential tx must come back sealed.
            return Err(Error::new(
                ErrorKind::Crypto,
                "confidential receipt came back unsealed",
            ));
        }
        Receipt::open(&receipt_bytes, &k_tx, &tx_hash)
            .map_err(|_| Error::new(ErrorKind::Crypto, "receipt decryption failed"))
    }
}
