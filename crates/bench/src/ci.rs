//! The CI ladder's curve table: the nineteen curves the latency sweep
//! writes to `BENCH_sweep.json` and `BENCH_spec_sweep.json`, the
//! cache-size × Zipf-θ grid printed beside them, and the traced rung
//! behind `BENCH_traced_sweep.json`. One definition serves both
//! `examples/latency_sweep.rs`, which writes and prints the documents,
//! and `tests/sweep_invariants.rs`, which asserts the sweep's claims and
//! byte-compares all three documents against their goldens.
//!
//! Each curve is one row: a [`rack`] builder for [`rack_factory`], or a
//! baseline's client wiring for [`baseline_factory`], plus the one axis
//! the curve varies, over an [`AppKind`] deployment. Every engine runs the same contended
//! dispatch model ([`DISPATCH_OCCUPANCY`] per packet on
//! [`DISPATCH_CONTEXTS`] contexts per CPU node), so CPU-side queueing
//! shows up in every curve instead of being assumed away.

use crate::{
    baseline_factory, rack_factory, sweep, sweep_par_with, AppKind, CurveFactory, CurveSpec,
    CurveTiming, ParSweepReport, SweepPoint, SweepReport, DEFAULT_GRANULARITY,
};
use pulse::baselines::{RpcConfig, SwapConfig};
use pulse::sim::SimTime;
use pulse::workloads::Distribution;
use pulse::{
    ArrivalProcess, BaselineKind, CacheConfig, CoalesceConfig, DispatchConfig, Engine, FaultEvent,
    FaultKind, PulseBuilder, TopologySpec, TraceConfig, YcsbWorkload,
};

/// Memory nodes in the default rack.
pub const NODES: usize = 2;
/// CPU nodes in every pulse rack.
pub const CPUS: usize = 2;
/// Closed-loop clients of every baseline curve.
const BASELINE_CLIENTS: usize = 16;
/// The arrival seed of every rung.
pub const SEED: u64 = 42;
/// The SLO of the "sustained load" headline (µs).
pub const SLO_P99_US: f64 = 150.0;
/// Memory nodes in the multi-rack incast deployment (two per leaf).
pub const FABRIC_NODES: usize = 4;
/// The routed geometry of the incast curves.
pub const FABRIC_TOPOLOGY: TopologySpec = TopologySpec::LeafSpine {
    leaves: 2,
    spines: 2,
};
/// Dispatch-engine service time per issued packet.
pub const DISPATCH_OCCUPANCY: SimTime = SimTime::from_nanos(1_000);
/// Dispatch contexts per CPU node.
pub const DISPATCH_CONTEXTS: usize = 2;
/// Front-end cache capacity for the `+cache` curves (per CPU node).
const CACHE_BYTES: u64 = 4 << 20;
/// Memory nodes in the crash curves: four, so a two-way-replicated rack
/// that loses one node still has spare nodes to rebuild onto.
pub const CRASH_NODES: usize = 4;
/// When node 0 dies on every crash rung — early enough that nearly the
/// whole rung runs degraded at every offered load on the ladder.
pub const CRASH_AT: SimTime = SimTime::from_micros(30);
/// Batch window of the ISA-v2 curves: up to this many consecutive
/// locally-translating hops fuse into one membus transaction.
const SPEC_BATCH_HOPS: u32 = 4;
/// Zipf θ (×1000) of the cache grid's rows.
pub const GRID_THETAS_MILLI: [u16; 2] = [200, 990];
/// Cache capacities (bytes per CPU node) of the cache grid's columns.
pub const GRID_CACHE_BYTES: [u64; 2] = [64 << 10, CACHE_BYTES];

/// The contended dispatch engine every curve runs.
pub fn dispatch() -> DispatchConfig {
    DispatchConfig::contended(DISPATCH_OCCUPANCY, DISPATCH_CONTEXTS)
}

/// The pulse rack every pulse curve starts from: `nodes` memory nodes,
/// [`CPUS`] CPU nodes, the contended [`dispatch`] engine.
pub fn rack(nodes: usize) -> PulseBuilder {
    PulseBuilder::new()
        .nodes(nodes)
        .cpus(CPUS)
        .dispatch(dispatch())
        .granularity(DEFAULT_GRANULARITY)
}

/// The wiring every baseline curve starts from: `nodes` memory nodes and
/// [`BASELINE_CLIENTS`] clients.
fn clients(nodes: usize) -> PulseBuilder {
    PulseBuilder::new()
        .nodes(nodes)
        .window(BASELINE_CLIENTS)
        .granularity(DEFAULT_GRANULARITY)
}

/// The crash curves' fault schedule: node 0 fail-stops at [`CRASH_AT`] and
/// never comes back (the re-replication engine, not a repair, restores
/// redundancy).
fn crash_schedule() -> Vec<FaultEvent> {
    vec![FaultEvent::new(CRASH_AT, FaultKind::MemCrash(0))]
}

/// The contended-dispatch RPC baseline every RPC curve starts from; the
/// cached and routed variants override one field each via struct update.
fn rpc_cfg() -> RpcConfig {
    RpcConfig {
        dispatch: dispatch(),
        ..RpcConfig::rpc()
    }
}

/// The CI ladder's curves in two groups, each in document order.
#[derive(Debug)]
pub struct CiCurves {
    /// The seventeen default curves (`BENCH_sweep.json`).
    pub default: Vec<CurveSpec>,
    /// The two ISA-v2 curves (`BENCH_spec_sweep.json`), swept on the same
    /// ladder but kept in their own document so the default one stays on
    /// its golden with the latency-hiding switches off.
    pub spec: Vec<CurveSpec>,
}

/// The table over the `loads_kops` ladder at [`SEED`], `requests` requests
/// per rung:
///
/// * **pulse**, **RPC**, **Cache-based** — WebService on the rack and on
///   both baselines;
/// * **pulse-wiredtiger**, **pulse-btrdb** — the staged B+Tree apps;
/// * **pulse-ycsb-a/b/e**, **RPC-ycsb-a** — the read-write mixes;
/// * **pulse+cache**, **RPC+cache**, **pulse-ycsb-a+cache** — a coherent
///   front-end cache on skewed reads and under the write-heavy mix;
/// * **pulse-leafspine-hot**, **RPC-leafspine-hot** — the incast pair on a
///   routed 2-leaf/2-spine fabric;
/// * **pulse-crash**, **pulse-crash-replicated**, **RPC-crash** — node 0
///   fail-stops at [`CRASH_AT`] on every rung;
/// * **pulse-spec**, **pulse-spec-ycsb-a** — the ISA-v2 group:
///   speculation and hop batching, plus coalescing on the read-heavy one.
pub fn ci_curves(loads_kops: &[f64], requests: usize) -> CiCurves {
    let rpc = BaselineKind::Rpc(rpc_cfg());
    let webservice = AppKind::WebService(Distribution::Zipfian);
    let ycsb_a = AppKind::Ycsb(YcsbWorkload::A);
    let cached = || rack(NODES).cache(CacheConfig::sized(CACHE_BYTES));
    let spec = || rack(NODES).speculation(true).batching(SPEC_BATCH_HOPS);
    let pulse = |builder, app| -> CurveFactory { Box::new(rack_factory(builder, app, requests)) };
    let baseline = |builder, kind, app| -> CurveFactory {
        Box::new(baseline_factory(builder, kind, app, requests))
    };
    let group = |rows: Vec<(&str, CurveFactory)>| -> Vec<CurveSpec> {
        rows.into_iter()
            .map(|(label, make)| CurveSpec {
                label: label.into(),
                loads_kops: loads_kops.to_vec(),
                seed: SEED,
                make,
            })
            .collect()
    };
    let default = group(vec![
        ("pulse", pulse(rack(NODES), webservice)),
        ("RPC", baseline(clients(NODES), rpc.clone(), webservice)),
        (
            "Cache-based",
            baseline(
                clients(NODES),
                BaselineKind::SwapCache(SwapConfig {
                    cache_bytes: 8 << 20,
                    dispatch: dispatch(),
                    ..SwapConfig::default()
                }),
                webservice,
            ),
        ),
        ("pulse-wiredtiger", pulse(rack(NODES), AppKind::WiredTiger)),
        ("pulse-btrdb", pulse(rack(NODES), AppKind::Btrdb(4))),
        ("pulse-ycsb-a", pulse(rack(NODES), ycsb_a)),
        (
            "pulse-ycsb-b",
            pulse(rack(NODES), AppKind::Ycsb(YcsbWorkload::B)),
        ),
        (
            "pulse-ycsb-e",
            pulse(rack(NODES), AppKind::Ycsb(YcsbWorkload::E)),
        ),
        ("RPC-ycsb-a", baseline(clients(NODES), rpc, ycsb_a)),
        // Cache sensitivity: skewed reads on both systems, then the
        // write-heavy mix, where invalidation-on-update erodes the benefit.
        ("pulse+cache", pulse(cached(), webservice)),
        (
            "RPC+cache",
            baseline(
                clients(NODES),
                BaselineKind::Rpc(RpcConfig {
                    cache: CacheConfig::sized(CACHE_BYTES),
                    ..rpc_cfg()
                }),
                webservice,
            ),
        ),
        ("pulse-ycsb-a+cache", pulse(cached(), ycsb_a)),
        // The multi-rack incast comparison: identical Zipf-skewed
        // WebService deployments on a routed 2-leaf/2-spine fabric.
        (
            "pulse-leafspine-hot",
            pulse(rack(FABRIC_NODES).topology(FABRIC_TOPOLOGY), webservice),
        ),
        (
            "RPC-leafspine-hot",
            baseline(
                clients(FABRIC_NODES),
                BaselineKind::Rpc(RpcConfig {
                    topology: FABRIC_TOPOLOGY,
                    ..rpc_cfg()
                }),
                webservice,
            ),
        ),
        // SLO under failure: replication off, replication on, and the RPC
        // baseline with the same replica rule (failover redirects plus one
        // timeout round trip, no rebuild traffic).
        (
            "pulse-crash",
            pulse(rack(CRASH_NODES).faults(crash_schedule()), webservice),
        ),
        (
            "pulse-crash-replicated",
            pulse(
                rack(CRASH_NODES).replication(2).faults(crash_schedule()),
                webservice,
            ),
        ),
        (
            "RPC-crash",
            baseline(
                clients(CRASH_NODES).replication(2),
                BaselineKind::Rpc(RpcConfig {
                    faults: crash_schedule(),
                    ..RpcConfig::rpc()
                }),
                webservice,
            ),
        ),
    ]);
    let spec = group(vec![
        (
            "pulse-spec",
            pulse(
                spec().coalescing(CoalesceConfig {
                    enabled: true,
                    ..Default::default()
                }),
                webservice,
            ),
        ),
        ("pulse-spec-ycsb-a", pulse(spec(), ycsb_a)),
    ]);
    CiCurves { default, spec }
}

impl CiCurves {
    /// Runs both groups on one [`sweep_par_with`] pool of `workers`
    /// threads; `on_curve` fires as each curve finishes.
    ///
    /// # Errors
    ///
    /// As [`sweep_par_with`].
    pub fn sweep(
        self,
        workers: usize,
        on_curve: impl Fn(&CurveTiming) + Send + Sync,
    ) -> Result<CiSweep, pulse::Error> {
        let defaults = self.default.len();
        let specs: Vec<CurveSpec> = self.default.into_iter().chain(self.spec).collect();
        let pool = sweep_par_with(&specs, workers, on_curve)?;
        Ok(CiSweep { pool, defaults })
    }
}

/// A swept [`CiCurves`]: the pool's report over every curve, default
/// group first.
#[derive(Debug)]
pub struct CiSweep {
    /// Every curve and its timing, in table order (what
    /// [`crate::simspeed_json`] reads).
    pub pool: ParSweepReport,
    defaults: usize,
}

impl CiSweep {
    /// The default group's curves (`BENCH_sweep.json`).
    pub fn default_curves(&self) -> &[SweepReport] {
        &self.pool.curves[..self.defaults]
    }

    /// The ISA-v2 group's curves (`BENCH_spec_sweep.json`).
    pub fn spec_curves(&self) -> &[SweepReport] {
        &self.pool.curves[self.defaults..]
    }
}

/// The cache-size × Zipf-θ hit-rate grid: one rung at `load_kops` of the
/// default rack with a front-end cache, over WebService at each θ of
/// [`GRID_THETAS_MILLI`] (rows) and each capacity of [`GRID_CACHE_BYTES`]
/// (columns), at most 500 requests per cell.
///
/// # Errors
///
/// As [`sweep`].
pub fn cache_grid(load_kops: f64, requests: usize) -> Result<[[f64; 2]; 2], pulse::Error> {
    let mut grid = [[0.0; 2]; 2];
    for (row, &milli) in grid.iter_mut().zip(&GRID_THETAS_MILLI) {
        for (cell, &bytes) in row.iter_mut().zip(&GRID_CACHE_BYTES) {
            let make = rack_factory(
                rack(NODES).cache(CacheConfig::sized(bytes)),
                AppKind::WebService(Distribution::ZipfianTheta { milli }),
                requests.min(500),
            );
            let curve = sweep("grid", &[load_kops], SEED, make)?;
            *cell = curve.points[0].counters.cache_hit_rate;
        }
    }
    Ok(grid)
}

/// The fully-traced rung, run after the sweep so tracing never touches the
/// ladder: the routed leaf-spine WebService deployment ([`FABRIC_NODES`]
/// memory nodes on [`FABRIC_TOPOLOGY`]) with span recording on, one
/// open-loop rung of `requests` requests at `load_kops` and [`SEED`]. It is
/// the only routed run with tracing on. Returns the one-point
/// `pulse-leafspine-traced` curve, which carries the per-phase attribution
/// (`BENCH_traced_sweep.json`), and the Perfetto-loadable Chrome trace.
///
/// # Errors
///
/// As [`PulseBuilder::build_with`] and
/// [`Engine::execute_open_loop`].
pub fn traced_rung(requests: usize, load_kops: f64) -> Result<(SweepReport, String), pulse::Error> {
    let (mut runtime, mut app) = rack(FABRIC_NODES)
        .topology(FABRIC_TOPOLOGY)
        .trace(Some(TraceConfig::default()))
        .build_with(AppKind::WebService(Distribution::Zipfian).build())?;
    let reqs: Vec<_> = (0..requests).map(|_| app.next_request()).collect();
    let rep = runtime.execute_open_loop(&reqs, ArrivalProcess::poisson(load_kops * 1e3, SEED))?;
    let chrome = runtime
        .trace_json()
        .expect("tracing was enabled on this runtime");
    let curve = SweepReport {
        label: "pulse-leafspine-traced".into(),
        points: vec![SweepPoint::from_open_loop(&rep)],
    };
    Ok((curve, chrome))
}
