//! # confide-net
//!
//! The zero-dependency networked node runtime: everything needed to put a
//! [`confide_core::node::ConfideNode`] behind a real TCP socket and drive
//! it with real clients, while keeping PR 1's hermetic std-only build.
//!
//! Layers:
//!
//! * [`frame`] — length-prefixed frame codec + the T-Protocol wire
//!   message set (submit envelope-sealed transactions, poll sealed
//!   receipts, fetch `pk_tx` and its attestation report), with a version
//!   byte and a max-frame guard. Typed errors, no panicking parser.
//! * [`server`] — [`server::NodeServer`]: a single-threaded nonblocking
//!   reactor multiplexing every connection (adaptive idle backoff,
//!   ordered reply sequencing, bounded write buffers), a preverify
//!   worker pool, and a three-stage block pipeline — preverify ∥
//!   execute ∥ group-commit fsync. Every queue is bounded; overflow is
//!   surfaced to the submitter as a typed `Busy` response — never a
//!   silent drop. Configuration is validated through
//!   [`server::ServerConfig::builder`].
//! * [`client`] — [`client::Conn`] (framed transport) and the unified
//!   [`client::Client`]: a pooled, retrying, redirect-chasing handle
//!   configured by [`client::ClientConfig`] that seals envelopes through
//!   the *same* [`confide_core::seal_signed_tx`] path as the in-process
//!   client.
//! * [`error`] — the consolidated taxonomy: every public client call
//!   returns [`error::Error`] with a typed [`error::ErrorKind`] and the
//!   full `source()` chain preserved.
//! * [`loadgen`] — open/closed-loop workload driver behind the
//!   `confide-loadgen` binary; emits `results/BENCH_net.json`.
//! * [`fault`] — [`fault::FaultProxy`]: a seeded fault-injecting TCP
//!   relay (drop/delay/duplicate/truncate/bit-flip/force-close) for
//!   chaos and fuzz tests; deterministic per seed.
//!
//! ## Threat model
//!
//! The transport adds **no** confidentiality of its own — deliberately.
//! The server (and any network middlebox) is untrusted in CONFIDE's model
//! (§3.3): transaction bodies cross the wire only inside T-Protocol
//! envelopes sealed to the enclave key `pk_tx`, receipts only sealed
//! under the one-time `k_tx`, and clients can demand an attestation
//! report binding `pk_tx` to the CS-enclave build before trusting it.
//! The loopback sniffer test (`tests/e2e.rs`) captures every frame of a
//! live session and asserts no plaintext payload or receipt bytes appear.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod demo;
pub mod error;
pub mod fault;
pub mod frame;
pub mod loadgen;
mod pipeline;
mod reactor;
pub mod server;

pub use client::{Client, ClientConfig, Conn, NetError, RetryPolicy, RetryStats};
pub use cluster::{ByzantinePreset, ClusterConfig, ClusterShared};
pub use error::{Error, ErrorKind};
pub use fault::{FaultPlan, FaultProxy, FaultStats};
pub use frame::{FrameError, Message, NodeStatus, DEFAULT_MAX_FRAME, WIRE_VERSION};
pub use pipeline::PipelineStats;
pub use server::{NodeServer, ServerConfig, ServerConfigBuilder, ServerStats};
