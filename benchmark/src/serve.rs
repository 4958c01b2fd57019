//! Set-up and the measured phase: closed-loop clients serving a task list
//! through the program's public front doors, in calibrated chunks.

use crate::calib::Phase;
use crate::reference::served_cost;
use crate::tasks::{Task, TaskList, CHURN_MAP, MAP_SIZE, WORLD_SEED};
use racod_grid::GridDelta2;
use racod_net::{standard_world, ClientConfig, NetClient, Netd, NetdConfig, WireResult};
use racod_server::{MapId, MapRegistry, Outcome, PlanServer, Planned, ServerConfig, ServerMetrics};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `Outcome::Planned` with the reference cost.
    Ok,
    /// `Outcome::Planned` with another cost: the run is incorrect.
    WrongCost,
    /// Rejected, shed, timed out, cancelled, lost, panicked or a transport
    /// error.
    Failed,
}

/// One served request as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the measured task list.
    pub task: usize,
    pub chunk: usize,
    /// Submit, as an offset from the run's epoch.
    pub start: Duration,
    /// Submit → response in hand.
    pub latency: Duration,
    pub verdict: Verdict,
    /// From the response: time queued and time on the worker.
    pub queue_wait: Duration,
    pub service_time: Duration,
}

/// One `apply_map_deltas` call of `churn_threads`.
#[derive(Debug, Clone, Copy)]
pub struct DeltaCall {
    /// Index of the measured task it followed.
    pub after_task: usize,
    pub chunk: usize,
    pub start: Duration,
    pub took: Duration,
}

/// What set-up builds and the measured phase serves through.
#[allow(clippy::large_enum_variant)] // one value per set-up, never moved in bulk
pub enum Env {
    Local(PlanServer),
    Wire { netd: Netd, client: NetClient, registry: Arc<MapRegistry> },
}

impl Env {
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        match self {
            Env::Local(server) => server.metrics(),
            Env::Wire { netd, .. } => netd.metrics(),
        }
    }

    pub fn registry(&self) -> &Arc<MapRegistry> {
        match self {
            Env::Local(server) => server.registry(),
            Env::Wire { registry, .. } => registry,
        }
    }

    /// The one client a single-client workload serves through.
    pub fn client(&mut self) -> Client<'_> {
        match self {
            Env::Local(server) => Client::Local(server),
            Env::Wire { client, .. } => Client::Wire(client),
        }
    }
}

/// A closed-loop client's handle on the program.
pub enum Client<'a> {
    Local(&'a PlanServer),
    Wire(&'a mut NetClient),
}

impl Client<'_> {
    /// Submits `task` and waits for the answer.
    fn plan(&mut self, task: &Task) -> Option<Planned> {
        let outcome = match self {
            Client::Local(server) => server.submit(task.request()).ok()?.wait().outcome,
            Client::Wire(client) => match client.plan(task.request()).ok()? {
                WireResult::Done(response) => response.outcome,
                WireResult::Rejected(_) => return None,
            },
        };
        match outcome {
            Outcome::Planned(planned) => Some(planned),
            _ => None,
        }
    }

    /// Applies a delta batch to the churn map; `false` if refused.
    pub fn apply(&mut self, deltas: &[GridDelta2]) -> bool {
        match self {
            Client::Local(server) => server.apply_map_deltas(&MapId::new(CHURN_MAP), deltas),
            Client::Wire(_) => None,
        }
        .is_some()
    }

    /// Serves one task and classifies the answer against its reference.
    pub fn serve(&mut self, task: &Task, index: usize, chunk: usize, epoch: Instant) -> Sample {
        let begin = Instant::now();
        let planned = self.plan(task);
        let latency = begin.elapsed();
        let (verdict, queue_wait, service_time) = match &planned {
            Some(p) if served_cost(p) == task.reference => {
                (Verdict::Ok, p.queue_wait, p.service_time)
            }
            Some(p) => (Verdict::WrongCost, p.queue_wait, p.service_time),
            None => (Verdict::Failed, Duration::ZERO, Duration::ZERO),
        };
        Sample {
            task: index,
            chunk,
            start: begin.duration_since(epoch),
            latency,
            verdict,
            queue_wait,
            service_time,
        }
    }
}

/// Builds the world, starts the server (or netd and a connection), places
/// the churn obstacles and serves the warm-up tasks — the work `setup_s`
/// times. The start-up and each chunk of warm-up tasks are pieces of
/// `phase`. Warm-up answers are checked like measured ones. `over_wire`:
/// behind a `Netd` and a connection, as `point_wire` is served.
pub fn set_up(list: &TaskList, over_wire: bool, phase: &mut Phase) -> Result<Env, String> {
    let mut env = phase.time(|| -> Result<Env, String> {
        let (registry, _) = standard_world(WORLD_SEED, MAP_SIZE);
        // One worker; everything else is what users run: speculation on,
        // ALT off, breakers on, no trace, no fault plan.
        let server = ServerConfig { workers: 1, ..Default::default() };
        if !over_wire {
            return Ok(Env::Local(PlanServer::start(server, registry)));
        }
        let netd = Netd::start(NetdConfig { server, ..Default::default() }, registry.clone())
            .map_err(|e| format!("netd start: {e}"))?;
        let client = NetClient::connect(netd.local_addr(), ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Env::Wire { netd, client, registry })
    })?;
    let mut client = env.client();
    if !list.initial.is_empty() && !phase.time(|| client.apply(&list.initial)) {
        return Err("initial obstacles refused".to_string());
    }
    let epoch = Instant::now();
    let mut served = 0;
    for chunk in list.warm.chunks(list.workload.chunk()) {
        phase.time(|| -> Result<(), String> {
            for task in chunk {
                if client.serve(task, served, 0, epoch).verdict != Verdict::Ok {
                    return Err(format!(
                        "warm-up task {served} was not served with its reference cost"
                    ));
                }
                served += 1;
                if let Some(batch) = list.batch_after(served) {
                    client.apply(batch);
                }
            }
            Ok(())
        })?;
    }
    Ok(env)
}

/// Everything the measured phase observed.
pub struct Measured {
    pub samples: Vec<Sample>,
    /// One piece per chunk, in order.
    pub phase: Phase,
    pub deltas: Vec<DeltaCall>,
}

/// Serves the measured tasks in chunks of a fixed request count. The main
/// thread takes a calibration burst between chunks while every client
/// waits at a barrier, so bursts and requests never overlap on the core.
pub fn measure(env: &mut Env, list: &TaskList, epoch: Instant) -> Measured {
    let workload = list.workload;
    let n = list.tasks.len();
    let chunk_len = workload.chunk();
    let n_chunks = n.div_ceil(chunk_len);
    let barrier = Barrier::new(workload.clients() + 1);
    let (cursor, chunk_end, chunk_no) =
        (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
    let done = AtomicBool::new(false);

    let mut clients: Vec<Client<'_>> = match env {
        Env::Local(server) => (0..workload.clients()).map(|_| Client::Local(server)).collect(),
        Env::Wire { client, .. } => vec![Client::Wire(client)],
    };
    let client_loop = |client: &mut Client<'_>| {
        let (mut samples, mut deltas) = (Vec::new(), Vec::new());
        loop {
            barrier.wait();
            if done.load(Ordering::Acquire) {
                return (samples, deltas);
            }
            let (end, chunk) =
                (chunk_end.load(Ordering::Acquire), chunk_no.load(Ordering::Acquire));
            // Clients pull the next task as they finish, so the configured
            // number stay in flight until the chunk runs dry.
            while let Ok(i) = cursor
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |i| (i < end).then_some(i + 1))
            {
                samples.push(client.serve(&list.tasks[i], i, chunk, epoch));
                if let Some(batch) = list.batch_after(list.warm.len() + i + 1) {
                    let begin = Instant::now();
                    client.apply(batch);
                    deltas.push(DeltaCall {
                        after_task: i,
                        chunk,
                        start: begin.duration_since(epoch),
                        took: begin.elapsed(),
                    });
                }
            }
            barrier.wait();
        }
    };

    std::thread::scope(|s| {
        let handles: Vec<_> = clients.iter_mut().map(|c| s.spawn(|| client_loop(c))).collect();
        let mut phase = Phase::begin(workload.deep_weight());
        for chunk in 0..n_chunks {
            chunk_no.store(chunk, Ordering::Release);
            chunk_end.store(((chunk + 1) * chunk_len).min(n), Ordering::Release);
            let begin = Instant::now();
            barrier.wait(); // releases the clients
            barrier.wait(); // the last client has its answer
            phase.push(begin.elapsed());
        }
        done.store(true, Ordering::Release);
        barrier.wait();
        let (mut samples, mut deltas) = (Vec::with_capacity(n), Vec::new());
        for h in handles {
            let (s, d) = h.join().expect("client thread panicked");
            samples.extend(s);
            deltas.extend(d);
        }
        samples.sort_by_key(|s| s.task);
        Measured { samples, phase, deltas }
    })
}
