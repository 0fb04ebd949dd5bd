//! Bootstrapping the system under test: the node a workload serves from,
//! exactly as a user would start it (demo bootstrap, durable WAL, real
//! loopback sockets).

use crate::drive::Wire;
use crate::gen::Inputs;
use confide_core::engine::full_key;
use confide_core::node::ConfideNode;
use confide_net::demo::{demo_node, DEMO_PUBLIC_CONTRACT};
use confide_net::{Message, NodeServer, ServerConfig};
use std::path::Path;
use std::time::Duration;

/// A running system: the node server, the client connections, and the
/// chain height bootstrap left it at.
pub struct System {
    pub server: NodeServer,
    /// The two client connections.
    pub conns: [Wire; 2],
    /// Height reached by genesis and preload (before any client traffic).
    pub genesis_height: u64,
}

/// The node a workload starts from, before it serves: demo contracts
/// deployed and, for `pub_100k`, the accounts preloaded through
/// `run_genesis`. The traced replay starts from the same node.
pub fn bootstrap_node(seed: u64, inputs: &Inputs) -> ConfideNode {
    let mut node = demo_node(seed);
    if !inputs.accounts.is_empty() {
        node.run_genesis(|_, _, ctx| {
            for (name, balance) in &inputs.accounts {
                let key = [b"bal:".as_slice(), name.as_bytes()].concat();
                ctx.write(
                    full_key(&DEMO_PUBLIC_CONTRACT, &key),
                    Some(balance.to_string().into_bytes()),
                );
            }
        })
        .expect("preload commits");
    }
    node
}

/// Boot the workload's node with its WAL at `wal`, and return once it has
/// answered a ping. The two client connections are opened first thing
/// after the node listens, so they take the same reactor slots, and with
/// them the same pre-verify worker shards, on every run.
pub fn boot(seed: u64, inputs: &Inputs, wal: &Path) -> Result<System, String> {
    let node = bootstrap_node(seed, inputs);
    let genesis_height = node.blocks.height();
    let config = ServerConfig::builder()
        .wal_path(wal.to_path_buf())
        .build()
        .map_err(|e| e.to_string())?;
    let server =
        NodeServer::spawn(node, "127.0.0.1:0", config).map_err(|e| format!("spawn: {e}"))?;
    let mut conns = [Wire::connect(server.addr())?, Wire::connect(server.addr())?];
    match conns[0].request(&Message::Ping.to_frame(), Duration::from_secs(10))? {
        Message::Pong => {}
        other => return Err(format!("ping answered with {other:?}")),
    }
    Ok(System {
        server,
        conns,
        genesis_height,
    })
}
