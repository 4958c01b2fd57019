//! Request and response types of the planning service.

use racod_geom::{Cell2, Cell3};
use racod_search::AstarConfig;
use racod_sim::{Footprint2, Footprint3};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Identifies a registered map. Cheap to clone and hash (shared string).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(Arc<str>);

impl MapId {
    /// Creates an id from any string-ish value.
    pub fn new(id: impl AsRef<str>) -> Self {
        MapId(Arc::from(id.as_ref()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for MapId {
    fn from(s: &str) -> Self {
        MapId::new(s)
    }
}

impl From<String> for MapId {
    fn from(s: String) -> Self {
        MapId::new(s)
    }
}

/// What a request asks the service to compute.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Plan on a registered 2D map.
    Plan2 {
        /// Start cell (must already be footprint-free; the server does not
        /// snap endpoints, so results stay bit-identical to direct calls).
        start: Cell2,
        /// Goal cell.
        goal: Cell2,
        /// Robot footprint.
        footprint: Footprint2,
    },
    /// Plan on a registered 3D map.
    Plan3 {
        /// Start voxel.
        start: Cell3,
        /// Goal voxel.
        goal: Cell3,
        /// Robot footprint.
        footprint: Footprint3,
    },
    /// Chaos-testing payload: the executing worker panics *inside* the
    /// per-request isolation boundary. The response reports
    /// [`Outcome::Panicked`] and the worker keeps serving.
    Poison,
    /// Chaos-testing payload: the executing worker thread panics *outside*
    /// the per-request boundary, killing the worker loop. The supervisor
    /// respawns it; any requests sharing the batch are reported lost.
    PoisonWorker,
}

/// Which execution backend serves the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Timed software model (`Backend::Software`): `threads` contexts,
    /// optional RASExp runahead depth.
    SimSoftware {
        /// Execution contexts in the timing model.
        threads: usize,
        /// RASExp depth; `None` is baseline multithreading.
        runahead: Option<usize>,
    },
    /// Timed RACOD model with a per-worker, per-map *warm* [`racod_codacc::CodaccPool`]
    /// (map-affinity batching keeps its L0/L1 caches hot).
    Racod {
        /// CODAcc unit count.
        units: usize,
    },
    /// The template kernel with no timing model
    /// ([`racod_sim::Backend::Native`]): the serving worker plans and
    /// checks on its own thread, because a hand-off to a pool thread costs
    /// more than the check it carries. Both fields are validated, carried
    /// on the wire and in traces, and otherwise unused.
    Threads {
        /// Requested check thread count (recorded, not used for serving).
        threads: usize,
        /// Requested runahead depth (recorded, not used for serving).
        runahead: usize,
    },
}

impl Default for Platform {
    fn default() -> Self {
        Platform::Racod { units: 8 }
    }
}

/// Scheduling priority class; lower is more urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-critical traffic (e.g. an in-motion replan).
    High,
    /// Regular interactive traffic.
    #[default]
    Normal,
    /// Batch / prefetch traffic.
    Low,
}

/// Largest footprint dimension, in cells, admission accepts.
const MAX_FOOTPRINT_CELLS: f32 = 64.0;
/// Largest thread / CODAcc-unit count admission accepts.
const MAX_PARALLELISM: usize = 64;
/// Deepest RASExp runahead admission accepts.
const MAX_RUNAHEAD: usize = 1024;

/// One planning request.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// Which registered map to plan on.
    pub map: MapId,
    /// What to compute.
    pub workload: Workload,
    /// Search configuration (weight, recording).
    pub astar: AstarConfig,
    /// Execution backend.
    pub platform: Platform,
    /// Scheduling class.
    pub priority: Priority,
    /// Completion budget measured from submission. A request still queued
    /// past its deadline is dropped ([`Outcome::TimedOut`] with
    /// [`TimeoutStage::Queued`]) without consuming planner time; one
    /// already executing is stopped cooperatively at the search's next
    /// interrupt poll ([`TimeoutStage::MidSearch`]) — individual collision
    /// checks still run to completion, so uninterrupted plans stay
    /// bit-identical to direct planner calls.
    pub deadline: Option<Duration>,
}

impl PlanRequest {
    /// A 2D request with default footprint (car), search config, platform,
    /// and priority.
    pub fn plan2(map: impl Into<MapId>, start: Cell2, goal: Cell2) -> Self {
        PlanRequest {
            map: map.into(),
            workload: Workload::Plan2 { start, goal, footprint: Footprint2::car() },
            astar: AstarConfig::default(),
            platform: Platform::default(),
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// A 3D request with default footprint (drone).
    pub fn plan3(map: impl Into<MapId>, start: Cell3, goal: Cell3) -> Self {
        PlanRequest {
            map: map.into(),
            workload: Workload::Plan3 { start, goal, footprint: Footprint3::drone() },
            astar: AstarConfig::default(),
            platform: Platform::default(),
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// Replaces the footprint of a 2D/3D workload (no-op for poison
    /// payloads).
    pub fn with_footprint2(mut self, footprint: Footprint2) -> Self {
        if let Workload::Plan2 { footprint: f, .. } = &mut self.workload {
            *f = footprint;
        }
        self
    }

    /// Replaces the platform.
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Replaces the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the search configuration.
    pub fn with_astar(mut self, astar: AstarConfig) -> Self {
        self.astar = astar;
        self
    }

    /// Whether every number in the request is one the service will act
    /// on: footprint dimensions finite and within `0..=MAX_FOOTPRINT_CELLS`,
    /// thread / unit counts within `1..=MAX_PARALLELISM`, runahead depth at
    /// most `MAX_RUNAHEAD`, a finite search weight. Thread and unit counts
    /// size pools that are cached per distinct value and footprints size
    /// per-check allocations, so without a bound one small frame can take
    /// a shard down.
    pub(crate) fn in_range(&self) -> bool {
        let dims_ok = |dims: &[f32]| dims.iter().all(|d| (0.0..=MAX_FOOTPRINT_CELLS).contains(d));
        let count_ok = |n: usize| (1..=MAX_PARALLELISM).contains(&n);
        let footprint_ok = match &self.workload {
            Workload::Plan2 { footprint: f, .. } => dims_ok(&[f.length, f.width]),
            Workload::Plan3 { footprint: f, .. } => dims_ok(&[f.length, f.width, f.height]),
            Workload::Poison | Workload::PoisonWorker => true,
        };
        let platform_ok = match self.platform {
            Platform::SimSoftware { threads, runahead } => {
                count_ok(threads) && runahead.unwrap_or(0) <= MAX_RUNAHEAD
            }
            Platform::Racod { units } => count_ok(units),
            Platform::Threads { threads, runahead } => {
                count_ok(threads) && runahead <= MAX_RUNAHEAD
            }
        };
        footprint_ok && platform_ok && self.astar.weight.is_finite()
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The ingress queue is at capacity; retry with backoff.
    QueueFull,
    /// No map registered under the request's id.
    UnknownMap(MapId),
    /// The workload dimensionality does not match the registered map
    /// (e.g. a 3D plan against a 2D map).
    DimensionMismatch,
    /// Admission-time load shedding: with the current backlog and measured
    /// service times, the request's deadline cannot plausibly be met, so it
    /// is rejected immediately instead of burning queue capacity only to
    /// time out later.
    DeadlineInfeasible {
        /// The admission controller's wait estimate at rejection time.
        estimated_wait: Duration,
        /// The deadline the request asked for.
        deadline: Duration,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// A number in the request is outside what the service will execute:
    /// a footprint dimension not in 0..=64 cells, a thread or unit count
    /// not in 1..=64, a runahead depth over 1 024, a non-finite weight.
    InvalidRequest,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "ingress queue full"),
            Rejected::UnknownMap(id) => write!(f, "unknown map {id}"),
            Rejected::DimensionMismatch => write!(f, "workload dimension != map dimension"),
            Rejected::DeadlineInfeasible { estimated_wait, deadline } => {
                write!(f, "deadline {deadline:?} infeasible: estimated wait {estimated_wait:?}")
            }
            Rejected::ShuttingDown => write!(f, "server shutting down"),
            Rejected::InvalidRequest => write!(f, "request parameter out of range"),
        }
    }
}

impl std::error::Error for Rejected {}

/// The path part of a completed plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedPath {
    /// 2D result (`None` = goal unreachable).
    P2(Option<Vec<Cell2>>),
    /// 3D result.
    P3(Option<Vec<Cell3>>),
}

impl PlannedPath {
    /// Whether a path was found.
    pub fn found(&self) -> bool {
        match self {
            PlannedPath::P2(p) => p.is_some(),
            PlannedPath::P3(p) => p.is_some(),
        }
    }

    /// Path length in states (0 if unreachable).
    pub fn len(&self) -> usize {
        match self {
            PlannedPath::P2(p) => p.as_ref().map_or(0, Vec::len),
            PlannedPath::P3(p) => p.as_ref().map_or(0, Vec::len),
        }
    }

    /// Whether no path was found.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A successfully executed plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The computed path (bit-identical to a direct planner call with the
    /// same scenario).
    pub path: PlannedPath,
    /// Path cost (`f64::INFINITY` if unreachable).
    pub cost: f64,
    /// A* expansions performed.
    pub expansions: u64,
    /// Simulated cycles (0 for [`Platform::Threads`], which is not a
    /// timing model).
    pub sim_cycles: u64,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time spent executing on the worker.
    pub service_time: Duration,
    /// Whether the worker reused a warm per-map pool (map-affinity hit).
    pub warm_start: bool,
}

/// Where in its lifecycle a request's deadline expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeoutStage {
    /// Still queued when the deadline passed: dropped by the dispatcher's
    /// expiry sweep (or by the worker just before execution) without
    /// consuming planner time.
    Queued,
    /// Already executing when the deadline passed: the search observed the
    /// interrupt at its next poll and stopped mid-flight, freeing the
    /// worker within one poll batch of expansions.
    MidSearch,
}

/// Terminal status of an admitted request.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The plan ran; inspect [`Planned::path`] for reachability.
    Planned(Planned),
    /// The deadline passed before a plan was produced; `stage` says whether
    /// any planner time was spent.
    TimedOut {
        /// How long the request sat in the queue (up to dispatch, or up to
        /// the drop for [`TimeoutStage::Queued`]).
        queued_for: Duration,
        /// Whether the deadline expired while queued or mid-search.
        stage: TimeoutStage,
    },
    /// The request was cancelled via [`crate::Ticket::cancel`] — either
    /// while still queued, or mid-search (the executing search observes the
    /// cancel flag at its next interrupt poll and aborts).
    Cancelled,
    /// The worker panicked while executing this request (isolated; the
    /// worker keeps serving).
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The executing worker died before producing a response (its
    /// supervisor respawned it, but this request's state was lost).
    Lost,
}

/// Unique per-server request id.
pub type RequestId = u64;

/// The server's answer to one admitted request.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// Id assigned at submission (matches [`crate::Ticket::id`]).
    pub id: RequestId,
    /// What happened.
    pub outcome: Outcome,
    /// Index of the worker that produced the response (`usize::MAX` when
    /// the scheduler answered without dispatching, e.g. queue-expiry).
    pub worker: usize,
}
