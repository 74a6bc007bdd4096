//! The pulse API layer: trait-based offloading and the engine abstraction.
//!
//! Three pieces glue a [`Traversal`] impl (the only thing a data-structure
//! developer writes) to an executing rack:
//!
//! * [`Offloaded`] — compiles a structure's stages through the
//!   [`DispatchEngine`] once and mints [`AppRequest`]s per key;
//! * [`AppSpec`] — the builder hook that constructs a whole application
//!   (structure + request generator) inside the rack's memory;
//! * [`Engine`] — the common face of the pulse runtime and every baseline
//!   system, so cluster-vs-baseline comparisons are a one-line swap.

use crate::error::Error;
use crate::runtime::{OpenLoopDriver, OpenLoopReport, RunCounters, Runtime};
use pulse_baselines::{
    run_rpc, run_rpc_open_loop, run_swap_cache, run_swap_cache_open_loop, BaselineReport,
    RpcConfig, SwapConfig,
};
use pulse_core::{ClusterReport, PhaseAttribution};
use pulse_dispatch::{DispatchEngine, OffloadDecision};
use pulse_ds::{BuildCtx, DsError, Traversal};
use pulse_isa::Program;
use pulse_mem::ClusterMemory;
use pulse_sim::{LatencyHistogram, LatencySummary, SimTime};
use pulse_workloads::{AppRequest, Application, ArrivalProcess, TraversalStage};
use pulse_workloads::{Btrdb, WebService, WiredTiger};
use pulse_workloads::{BtrdbConfig, WebServiceConfig, WiredTigerConfig};
use std::sync::Arc;

// ---------------------------------------------------------------- Offloaded

/// A [`Traversal`] whose stages have been compiled and priced by the
/// dispatch engine. Minting a request is then pure `init()`: plan the
/// stages for a key and pair each with its compiled program.
#[derive(Debug)]
pub struct Offloaded<T> {
    inner: T,
    programs: Vec<Arc<Program>>,
    decisions: Vec<OffloadDecision>,
}

impl<T: Traversal> Offloaded<T> {
    /// Compiles every stage of `inner` through `engine`.
    ///
    /// # Errors
    ///
    /// [`Error::Compile`] if a stage's spec is rejected.
    pub fn compile(inner: T, engine: &DispatchEngine) -> Result<Offloaded<T>, Error> {
        let mut programs = Vec::new();
        let mut decisions = Vec::new();
        for spec in inner.stages() {
            let compiled = engine.prepare(&spec)?;
            programs.push(compiled.program);
            decisions.push(compiled.decision);
        }
        Ok(Offloaded {
            inner,
            programs,
            decisions,
        })
    }

    /// Builds the request for a lookup of `key`: traversal stages only; use
    /// [`AppRequest`]'s fields to attach object I/O or CPU work afterwards.
    ///
    /// # Errors
    ///
    /// [`Error::Build`] from the structure's `init()` (e.g. empty), or
    /// [`Error::Config`] if the structure planned a different stage count
    /// than it advertised.
    pub fn request(&self, key: u64) -> Result<AppRequest, Error> {
        let mut plan_buf = Vec::new();
        self.request_with(key, &mut plan_buf)
    }

    /// Like [`Offloaded::request`], planning through a caller-owned buffer
    /// so minting many requests in a loop allocates no plan `Vec` per key.
    /// `plan_buf` is left empty (capacity retained) on success.
    ///
    /// # Errors
    ///
    /// Same as [`Offloaded::request`].
    pub fn request_with(
        &self,
        key: u64,
        plan_buf: &mut Vec<crate::StagePlan>,
    ) -> Result<AppRequest, Error> {
        self.inner.plan_into(key, plan_buf)?;
        if plan_buf.len() != self.programs.len() {
            return Err(Error::Config(format!(
                "{}: planned {} stages but compiled {}",
                self.inner.name(),
                plan_buf.len(),
                self.programs.len()
            )));
        }
        let traversals = plan_buf
            .drain(..)
            .zip(&self.programs)
            .map(|(plan, program)| TraversalStage::from_plan(plan, program.clone()))
            .collect();
        Ok(AppRequest {
            traversals,
            object_io: None,
            cpu_work: SimTime::ZERO,
            response_extra_bytes: 0,
            retry: None,
        })
    }

    /// The wrapped structure.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Compiled programs, one per stage.
    pub fn programs(&self) -> &[Arc<Program>] {
        &self.programs
    }

    /// The dispatch engine's placement decision per stage.
    pub fn decisions(&self) -> &[OffloadDecision] {
        &self.decisions
    }
}

// ------------------------------------------------------------------ AppSpec

/// An application configuration the [`PulseBuilder`](crate::PulseBuilder)
/// can construct inside the rack's memory: `builder.app(cfg)` builds the
/// structure and returns the runtime plus the request generator.
pub trait AppSpec {
    /// The application this spec builds.
    type App: Application;

    /// Builds the application (structures + object stores) through `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates structure-building failures.
    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<Self::App, DsError>;
}

impl AppSpec for WebServiceConfig {
    type App = WebService;

    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<WebService, DsError> {
        WebService::build(ctx, self)
    }
}

impl AppSpec for WiredTigerConfig {
    type App = WiredTiger;

    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<WiredTiger, DsError> {
        WiredTiger::build(ctx, self)
    }
}

impl AppSpec for BtrdbConfig {
    type App = Btrdb;

    fn build_app(self, ctx: &mut BuildCtx<'_>) -> Result<Btrdb, DsError> {
        Btrdb::build(ctx, self)
    }
}

// ------------------------------------------------------------------- Engine

/// What every execution engine reports: the common subset of
/// [`ClusterReport`] and [`BaselineReport`] the comparisons plot.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// System label ("pulse", "Cache-based", "RPC", ...).
    pub label: String,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests terminated by faults (always 0 for the replay baselines).
    pub faulted: u64,
    /// End-to-end latency distribution.
    pub latency: LatencySummary,
    /// Requests per simulated second.
    pub throughput: f64,
    /// Bytes over the CPU node's link.
    pub net_bytes: u64,
    /// Bytes served by memory-node DRAM.
    pub mem_bytes: u64,
    /// Front-end traversal-cell cache hit rate (0.0 when disabled).
    pub cache_hit_rate: f64,
    /// Peak busy fraction over the fabric links into CPU nodes. Exactly
    /// 0.0 on the flat topology, where no fabric exists.
    pub link_utilization: f64,
    /// Deepest any fabric link's egress FIFO ever got. 0 on flat.
    pub queue_depth: u64,
    /// Per-phase latency attribution, present exactly when the engine ran
    /// with tracing enabled.
    pub phase: Option<PhaseAttribution>,
    /// End of the last completion.
    pub makespan: SimTime,
}

impl EngineReport {
    fn from_cluster(rep: &ClusterReport) -> EngineReport {
        EngineReport {
            label: "pulse".into(),
            completed: rep.completed,
            faulted: rep.faulted,
            latency: rep.latency,
            throughput: rep.throughput,
            net_bytes: rep.net_bytes,
            mem_bytes: rep.mem_bytes,
            cache_hit_rate: rep.cache_hit_rate,
            link_utilization: rep.link_utilization,
            queue_depth: rep.queue_depth,
            phase: rep.phase,
            makespan: rep.makespan,
        }
    }

    fn from_baseline(rep: &BaselineReport) -> EngineReport {
        EngineReport {
            label: rep.label.into(),
            completed: rep.completed,
            faulted: 0,
            latency: rep.latency,
            throughput: rep.throughput,
            net_bytes: rep.net_bytes,
            mem_bytes: rep.mem_bytes,
            cache_hit_rate: rep.cache_hit_rate,
            link_utilization: rep.link_utilization,
            queue_depth: rep.queue_depth,
            phase: rep.phase,
            makespan: rep.makespan,
        }
    }
}

/// A system that executes [`AppRequest`] streams: the pulse rack
/// ([`Runtime`]) or any compared baseline ([`BaselineEngine`]). Concurrency
/// is an engine property fixed at construction (the runtime's in-flight
/// window, a baseline's client count), so swapping systems under the same
/// workload is a one-line change.
///
/// **Measurement contract:** build one engine per measured stream and call
/// [`Engine::execute`] once on it. The pulse runtime's counters (latency
/// histogram, link/DRAM bytes, makespan) are cumulative over the rack's
/// lifetime while the replay baselines price each call independently, so a
/// second `execute` on the same engine would not produce comparable
/// reports across implementations.
pub trait Engine {
    /// System label for report rows.
    fn label(&self) -> &'static str;

    /// Executes `requests` to completion, closed-loop. See the trait-level
    /// measurement contract: one call per engine instance for comparable
    /// reports.
    ///
    /// # Errors
    ///
    /// Submission-time validation failures ([`Error::Request`]).
    fn execute(&mut self, requests: &[AppRequest]) -> Result<EngineReport, Error>;

    /// Executes `requests` open-loop: request `i` arrives at the time the
    /// [`ArrivalProcess`] generates, independent of completions, and its
    /// latency is measured from that arrival — queueing included. One call
    /// per engine instance, same as [`Engine::execute`]; a load sweep
    /// builds a fresh engine per offered-load point.
    ///
    /// # Errors
    ///
    /// Submission-time validation failures ([`Error::Request`]).
    fn execute_open_loop(
        &mut self,
        requests: &[AppRequest],
        arrivals: ArrivalProcess,
    ) -> Result<OpenLoopReport, Error>;
}

impl Engine for Runtime {
    fn label(&self) -> &'static str {
        "pulse"
    }

    fn execute(&mut self, requests: &[AppRequest]) -> Result<EngineReport, Error> {
        for req in requests {
            self.submit(req.clone())?;
        }
        let report = self.drain();
        Ok(EngineReport::from_cluster(&report))
    }

    fn execute_open_loop(
        &mut self,
        requests: &[AppRequest],
        arrivals: ArrivalProcess,
    ) -> Result<OpenLoopReport, Error> {
        OpenLoopDriver::new(arrivals).run(self, requests.to_vec())
    }
}

/// Which baseline system a [`BaselineEngine`] runs.
#[derive(Debug, Clone)]
pub enum BaselineKind {
    /// Fastswap-style cache-based paging.
    SwapCache(SwapConfig),
    /// The RPC family (plain, ARM, or AIFM-style Cache+RPC).
    Rpc(RpcConfig),
}

/// A baseline system over its own copy of the rack memory, behind the same
/// [`Engine`] face as the pulse runtime.
#[derive(Debug)]
pub struct BaselineEngine {
    mem: ClusterMemory,
    kind: BaselineKind,
    concurrency: usize,
}

impl BaselineEngine {
    /// Wraps an already-populated memory in a baseline engine with
    /// `concurrency` closed-loop clients.
    pub fn new(mem: ClusterMemory, kind: BaselineKind, concurrency: usize) -> BaselineEngine {
        BaselineEngine {
            mem,
            kind,
            concurrency,
        }
    }

    /// The memory the baseline executes against.
    pub fn memory_mut(&mut self) -> &mut ClusterMemory {
        &mut self.mem
    }
}

impl Engine for BaselineEngine {
    fn label(&self) -> &'static str {
        match &self.kind {
            BaselineKind::SwapCache(_) => "Cache-based",
            BaselineKind::Rpc(_) => "RPC",
        }
    }

    fn execute(&mut self, requests: &[AppRequest]) -> Result<EngineReport, Error> {
        for req in requests {
            req.validate()?;
        }
        let rep = match self.kind.clone() {
            BaselineKind::SwapCache(cfg) => {
                run_swap_cache(&mut self.mem, requests, self.concurrency, cfg)
            }
            BaselineKind::Rpc(cfg) => run_rpc(&mut self.mem, requests, self.concurrency, cfg),
        };
        Ok(EngineReport::from_baseline(&rep))
    }

    fn execute_open_loop(
        &mut self,
        requests: &[AppRequest],
        mut arrivals: ArrivalProcess,
    ) -> Result<OpenLoopReport, Error> {
        for req in requests {
            req.validate()?;
        }
        let times = arrivals.schedule(SimTime::ZERO, requests.len());
        let first_arrival = times.first().copied().unwrap_or(SimTime::ZERO);
        if requests.is_empty() {
            return Ok(OpenLoopReport {
                label: self.label().into(),
                offered_per_sec: arrivals.rate_per_sec().unwrap_or(0.0),
                submitted: 0,
                completed: 0,
                faulted: 0,
                latency: LatencyHistogram::new().summary(),
                goodput_per_sec: 0.0,
                first_arrival,
                last_arrival: first_arrival,
                last_completion: first_arrival,
                completed_updates: 0,
                counters: RunCounters::default(),
                phase: None,
            });
        }
        let rep = match self.kind.clone() {
            BaselineKind::SwapCache(cfg) => {
                run_swap_cache_open_loop(&mut self.mem, requests, self.concurrency, cfg, &times)
            }
            BaselineKind::Rpc(cfg) => {
                run_rpc_open_loop(&mut self.mem, requests, self.concurrency, cfg, &times)
            }
        };
        let offered_per_sec =
            arrivals.offered_rate(first_arrival, *times.last().unwrap(), times.len() as u64);
        Ok(OpenLoopReport {
            label: rep.label.into(),
            offered_per_sec,
            submitted: requests.len() as u64,
            completed: rep.completed,
            // The only way a replay baseline fails a request is running
            // out of replicas under a fault schedule.
            faulted: rep.unavailable_completions,
            latency: rep.latency,
            goodput_per_sec: rep.throughput,
            first_arrival,
            last_arrival: *times.last().unwrap(),
            last_completion: rep.makespan,
            // The replay baselines complete every request and execute
            // sequentially: updates all land, races never happen.
            completed_updates: requests.iter().filter(|r| r.is_update()).count() as u64,
            // The replay baselines execute sequentially (no races), never
            // rebuild lost extents, and have no accelerators, so retries,
            // re-replication and the ISA-v2 counters stay zero.
            counters: RunCounters {
                cache_hit_rate: rep.cache_hit_rate,
                link_utilization: rep.link_utilization,
                queue_depth: rep.queue_depth,
                failovers: rep.failovers,
                unavailable_completions: rep.unavailable_completions,
                degraded_p99: rep.degraded_p99,
                ..RunCounters::default()
            },
            phase: rep.phase,
        })
    }
}
