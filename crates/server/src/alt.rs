//! ALT landmark heuristics at service scope: configuration plus the
//! background rebuilder that re-derives version-fenced packs after map
//! deltas.
//!
//! The registry owns the cache ([`crate::registry::MapEntry::landmark_pack2`]):
//! each 2D map lazily builds one [`racod_search::LandmarkPack2`] stamped
//! with the map version its distance fields were computed from. The stamp
//! is the entire fencing story — a delta bumps the map version and the
//! pack goes stale *by comparison*, with no write to the slot and no
//! coordination with in-flight plans. A plan whose snapshot version
//! matches the stamp searches landmark-guided; any other plan falls back
//! to the configured octile heuristic (counted as `alt_pack_fallbacks`),
//! so admissibility is never violated by distances from a world that no
//! longer exists.
//!
//! Falling back forever would forfeit the speedup, so
//! [`crate::PlanServer::apply_map_deltas`] enqueues the map on a
//! best-effort channel to the rebuilder thread spawned here. It re-derives
//! the pack against the current grid off the request path (workers never
//! block on a rebuild) and republishes under a version-checked write that
//! never replaces a newer pack with an older one. Packs nobody asked for are never rebuilt — laziness survives churn.
//!
//! ALT defaults **off**: a stronger heuristic legitimately settles on a
//! different equal-cost optimal path, which would break the service's
//! bit-identity contract with direct planner calls. Turning it on keeps
//! optimal *costs* bit-identical (the workspace `alt_equivalence` suite
//! proves it) while cutting expansions per plan.

use crate::metrics::ServerMetrics;
use crate::registry::MapRegistry;
use crate::request::MapId;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for the ALT landmark heuristic subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AltConfig {
    /// Kill switch. When `false` (the default), no packs are built, no
    /// rebuilder thread starts, and every search runs exactly as a build
    /// without this module — preserving path bit-identity with direct
    /// planner calls. When `true`, optimal plan *costs* stay bit-identical
    /// but the returned path may be a different equal-cost optimum.
    pub enabled: bool,
    /// Landmarks per pack (farthest-point selection caps this at the free
    /// cell count). More landmarks tighten the bound at 8 bytes per cell
    /// per landmark and one Dijkstra each at (re)build time.
    pub landmarks: usize,
}

impl Default for AltConfig {
    fn default() -> Self {
        AltConfig { enabled: false, landmarks: 8 }
    }
}

/// A rebuild order for one map, enqueued (best effort) when a delta lands.
pub(crate) type AltTask = MapId;

/// Rebuilder thread body: drain rebuild orders and re-derive any stale,
/// previously requested landmark pack. Orders for maps whose pack was
/// never requested — or that a racing order already refreshed — are no-ops,
/// so duplicate enqueues under churn coalesce naturally.
pub(crate) fn rebuilder_loop(
    rx: Receiver<AltTask>,
    registry: Arc<MapRegistry>,
    shutdown: Arc<AtomicBool>,
    cfg: AltConfig,
    metrics: Arc<ServerMetrics>,
) {
    while !shutdown.load(Ordering::Relaxed) {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(id) => {
                if let Some(entry) = registry.get(&id) {
                    if entry.rebuild_landmarks2(cfg.landmarks) {
                        metrics.alt_packs_built.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}
