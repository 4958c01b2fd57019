//! racod-net: wire transport and shard router for the RACOD planning
//! service.
//!
//! Everything below the [`racod_server`] scheduler assumes one process.
//! This crate is the fleet layer on top: a compact length-prefixed binary
//! protocol ([`proto`], over the server's byte codec re-exported as
//! [`wire`]), a blocking thread-per-connection TCP server embedding a
//! [`racod_server::PlanServer`] ([`netd`]), a
//! consistent-hashing shard router with health probes, per-shard circuit
//! breakers and honest backpressure ([`router`]), and a blocking client
//! ([`client`]). No external dependencies — `std::net` and fixed-width
//! little-endian encoding all the way down.
//!
//! The load generator and every shard rebuild the identical benchmark
//! world from a seed ([`world`]), which is what makes the crate's central
//! claim testable end to end: **a plan served over two sockets and a ring
//! hash is bit-identical — path, cost bits, outcome — to the same plan
//! computed in-process.** Distribution adds availability semantics
//! (drain, failover, honest `Lost`), never answer semantics.

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod digest;
pub mod netd;
pub mod proto;
pub mod replay;
pub mod router;
pub mod signals;
pub mod world;

pub use client::{plan_with_retry, ClientConfig, NetClient, RemoteRetryOutcome};
pub use conn::{ConnConfig, ConnError, FramedConn, Recv};
pub use digest::{plan_cost_digest, plan_digest, record_cost_digest};
pub use netd::{Netd, NetdConfig, NetdStats};
pub use proto::{
    Health, Message, MetricsFrame, MsgKind, ShardStat, ShardState, WireResult, DEFAULT_MAX_FRAME,
    HEADER_LEN, MAGIC, PROTO_VERSION,
};
pub use racod_server::wire::{self, ProtocolError};
pub use replay::{replay_local, replay_remote, ReplayOptions, ReplayReport};
pub use router::{Router, RouterConfig};
pub use world::{standard_world, MapPool};
