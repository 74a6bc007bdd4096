//! The four benchmark workloads: how each deployment is built, how its
//! request stream is minted from the seed, and the fixed rates it is
//! measured at.
//!
//! Every workload drives the stack only through public APIs:
//! `PulseBuilder` → `Runtime` for the rack, `PulseBuilder::baseline_app` →
//! `BaselineEngine` for the RPC baseline. The seed feeds every generator:
//! the application config seed (keys, BTrDB telemetry and windows), the
//! `YcsbDriver`, and the Poisson arrivals.

use pulse::baselines::RpcConfig;
use pulse::sim::{SimTime, SplitMix64};
use pulse::workloads::{Application, Distribution};
use pulse::{
    AppRequest, BaselineEngine, BaselineKind, BtrdbConfig, CacheConfig, CoalesceConfig,
    DispatchConfig, MutationConfig, PulseBuilder, Runtime, TraceConfig, WebServiceConfig,
    YcsbDriver, YcsbWorkload,
};
use pulse_bench::DEFAULT_GRANULARITY;
use std::time::Instant;

/// The seed the frozen rates were calibrated at.
pub const DEFAULT_SEED: u64 = 42;
/// A seed used only to confirm a claim, never while tuning a change.
pub const HELDOUT_SEED: u64 = 1234;
/// The latency SLO every workload's knee is searched against (the repo's
/// existing sweep SLO).
pub const SLO_P99_US: f64 = 150.0;

const NODES: usize = 2;
const CPUS: usize = 2;
const KEYS: u64 = 6_000;
const DISPATCH_OCCUPANCY: SimTime = SimTime::from_nanos(1_000);
const DISPATCH_CONTEXTS: usize = 2;
const CACHE_BYTES: u64 = 4 << 20;
const SPEC_BATCH_HOPS: u32 = 4;
/// Independent request streams per rate on every workload; the simulated
/// latency metrics and the knee are medians over them.
pub const STREAMS: usize = 9;
/// Closed-loop clients of the RPC baseline.
pub const RPC_CLIENTS: usize = 16;
const BTRDB_NODES: usize = 4;
const BTRDB_WINDOW_SECS: u64 = 4;
const BTRDB_DURATION_SECS: u64 = 900;

/// Which deployment a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The pulse rack over read-only WebService YCSB-C.
    WsRead,
    /// The pulse rack over BTrDB window aggregation.
    BtrdbScan,
    /// The `WsRead` rack with the front-end cache and ISA v2 on, under
    /// YCSB-A.
    YcsbAV2,
    /// The RPC baseline over the `WsRead` deployment.
    RpcWsRead,
}

/// One named workload and the sizes it is measured at.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// The deployment.
    pub kind: Kind,
    /// Fixed offered rate of the `low` rung (about a quarter of the
    /// default-seed knee), kops.
    pub low_kops: f64,
    /// Fixed offered rate of the `high` rung (about three quarters of the
    /// default-seed knee), kops.
    pub high_kops: f64,
    /// Requests per fixed-rate rung.
    pub rung_requests: usize,
    /// Requests per knee probe.
    pub knee_requests: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ws-read",
        kind: Kind::WsRead,
        low_kops: 260.0,
        high_kops: 780.0,
        rung_requests: 12_000,
        knee_requests: 3_000,
    },
    Workload {
        name: "btrdb-scan",
        kind: Kind::BtrdbScan,
        low_kops: 102.0,
        high_kops: 305.0,
        rung_requests: 2_500,
        knee_requests: 1_500,
    },
    Workload {
        name: "ycsb-a-v2",
        kind: Kind::YcsbAV2,
        low_kops: 633.0,
        high_kops: 1_900.0,
        rung_requests: 10_000,
        knee_requests: 3_000,
    },
    Workload {
        name: "rpc-ws-read",
        kind: Kind::RpcWsRead,
        low_kops: 172.0,
        high_kops: 516.0,
        rung_requests: 50_000,
        knee_requests: 6_000,
    },
];

/// The seed of stream `k` of a run at `seed`: stream 0 runs at the seed
/// itself, stream `k > 0` at the `k`-th draw of a generator seeded with
/// it. (Offsetting the seed instead would replay shifted copies of one
/// stream: the arrival generator steps its state by a fixed increment.)
pub fn stream_seed(seed: u64, k: usize) -> u64 {
    let mut g = SplitMix64::new(seed);
    (0..k).fold(seed, |_, _| g.next_u64())
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The engine a deployment runs on. One exists per rung, so the variants'
/// size difference costs nothing worth a box.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    /// The pulse rack.
    Pulse(Runtime),
    /// The RPC baseline, with the config it prices requests under.
    Rpc(BaselineEngine, RpcConfig),
}

impl Engine {
    /// The shared `Engine` face both systems implement.
    pub fn as_engine(&mut self) -> &mut dyn pulse::Engine {
        match self {
            Engine::Pulse(rt) => rt,
            Engine::Rpc(engine, _) => engine,
        }
    }
}

/// A built deployment plus its minted request stream.
#[derive(Debug)]
pub struct Deployment {
    /// The engine, ready to execute `requests`.
    pub engine: Engine,
    /// The request stream, minted from the seed.
    pub requests: Vec<AppRequest>,
    /// For `ycsb-a-v2`: the object address of every key, read from the
    /// application before `YcsbDriver` took it over. Empty otherwise.
    pub objects: Vec<u64>,
    /// Host time spent in `PulseBuilder::app` and friends.
    pub build: (Instant, Instant),
    /// Host time spent minting `requests`.
    pub mint: (Instant, Instant),
}

fn dispatch() -> DispatchConfig {
    DispatchConfig::contended(DISPATCH_OCCUPANCY, DISPATCH_CONTEXTS)
}

fn webservice_cfg(workload: YcsbWorkload, seed: u64) -> WebServiceConfig {
    WebServiceConfig {
        keys: KEYS,
        workload,
        distribution: Distribution::Zipfian,
        seed,
        ..Default::default()
    }
}

fn rack(nodes: usize, trace: bool) -> PulseBuilder {
    PulseBuilder::new()
        .nodes(nodes)
        .cpus(CPUS)
        .dispatch(dispatch())
        .granularity(DEFAULT_GRANULARITY)
        .trace(trace.then_some(TraceConfig {
            sample_interval: SimTime::ZERO,
        }))
}

impl Kind {
    /// The deployment's configuration, for provenance records.
    pub fn describe(self) -> String {
        let dispatch = format!(
            "dispatch={}ns x {} contexts",
            DISPATCH_OCCUPANCY.as_picos() / 1_000,
            DISPATCH_CONTEXTS
        );
        match self {
            Kind::WsRead => format!(
                "pulse rack: {NODES} mem nodes, {CPUS} cpu nodes, flat topology, {dispatch}; \
                 WebService YCSB-C zipfian over {KEYS} keys; cache and ISA v2 off"
            ),
            Kind::BtrdbScan => format!(
                "pulse rack: {BTRDB_NODES} mem nodes, {CPUS} cpu nodes, flat topology, {dispatch}; \
                 BTrDB {BTRDB_WINDOW_SECS}s windows over {BTRDB_DURATION_SECS}s of telemetry, \
                 partitioned B+Tree"
            ),
            Kind::YcsbAV2 => format!(
                "pulse rack: {NODES} mem nodes, {CPUS} cpu nodes, flat topology, {dispatch}; \
                 {} MiB front-end cache per cpu node; speculation, {SPEC_BATCH_HOPS}-hop batching, \
                 coalescing; WebService YCSB-A zipfian over {KEYS} keys, locked updates",
                CACHE_BYTES >> 20
            ),
            Kind::RpcWsRead => format!(
                "RPC baseline: {NODES} mem nodes, {RPC_CLIENTS} clients, {dispatch}; \
                 WebService YCSB-C zipfian over {KEYS} keys"
            ),
        }
    }

    /// Builds the deployment at `seed` and mints `n` requests. `trace`
    /// switches the program's own phase attribution on.
    pub fn deploy(self, seed: u64, n: usize, trace: bool) -> Result<Deployment, pulse::Error> {
        let start = Instant::now();
        let mint = |next: &mut dyn FnMut() -> AppRequest| (0..n).map(|_| next()).collect();
        let (engine, built, requests, objects) = match self {
            Kind::WsRead => {
                let (runtime, mut app) =
                    rack(NODES, trace).app(webservice_cfg(YcsbWorkload::C, seed))?;
                let built = Instant::now();
                let requests = mint(&mut || app.next_request());
                (Engine::Pulse(runtime), built, requests, Vec::new())
            }
            Kind::BtrdbScan => {
                let (runtime, mut app) = rack(BTRDB_NODES, trace).app(BtrdbConfig {
                    duration_secs: BTRDB_DURATION_SECS,
                    window_secs: BTRDB_WINDOW_SECS,
                    placement: pulse::ds::TreePlacement::Partitioned { nodes: BTRDB_NODES },
                    seed,
                    ..Default::default()
                })?;
                let built = Instant::now();
                let requests = mint(&mut || app.next_request());
                (Engine::Pulse(runtime), built, requests, Vec::new())
            }
            Kind::YcsbAV2 => {
                let cfg = webservice_cfg(YcsbWorkload::A, seed);
                let (mut runtime, app) = rack(NODES, trace)
                    .cache(CacheConfig::sized(CACHE_BYTES))
                    .speculation(true)
                    .batching(SPEC_BATCH_HOPS)
                    .coalescing(CoalesceConfig {
                        enabled: true,
                        ..Default::default()
                    })
                    .app(cfg)?;
                let objects = (0..app.keys()).map(|k| app.object_addr(k)).collect();
                let mut driver = YcsbDriver::webservice(app, cfg, MutationConfig::default())?;
                let built = Instant::now();
                let requests = mint(&mut || driver.next_request(runtime.memory_mut()));
                (Engine::Pulse(runtime), built, requests, objects)
            }
            Kind::RpcWsRead => {
                let cfg = RpcConfig {
                    dispatch: dispatch(),
                    trace,
                    ..RpcConfig::rpc()
                };
                let (engine, mut app) = PulseBuilder::new()
                    .nodes(NODES)
                    .window(RPC_CLIENTS)
                    .granularity(DEFAULT_GRANULARITY)
                    .baseline_app(
                        BaselineKind::Rpc(cfg.clone()),
                        webservice_cfg(YcsbWorkload::C, seed),
                    )?;
                let built = Instant::now();
                let requests = mint(&mut || app.next_request());
                (Engine::Rpc(engine, cfg), built, requests, Vec::new())
            }
        };
        Ok(Deployment {
            engine,
            requests,
            objects,
            build: (start, built),
            mint: (built, Instant::now()),
        })
    }
}
