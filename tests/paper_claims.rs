//! The paper's evaluation claims, one named test per claim: Fig. 2's
//! motivation study, Figs. 7–12, Tables 3 and 4, and the appendix studies.
//!
//! System-level throughput and latency claims (Figs. 7/8/9, appendix
//! Figs. 5/6, bandwidth) run on the one open-loop measurement path:
//! `pulse_bench::sweep` over `Engine` factories, throughput from
//! `SweepReport::max_load_under_p99` at the [`SLO_P99_US`] SLO on the short
//! [`LADDER`], latency from the p50 of its lowest rung. Component-model
//! claims call their model functions directly (`estimate`,
//! `run_closed_loop`, `cxl_study`, `pulse::energy`, `DispatchEngine`).
//!
//! Each claim is a function from measured inputs to `Result`: the test
//! asserts it holds, and for every claim the model reproduces, a second
//! test mutates one input across the band edge and asserts the check then
//! fails. A claim the model does not reproduce is not loosened: its check
//! asserts the *measured* value inside a band of about ±10% (the "measured"
//! bands below), and README.md's "Divergences from the paper" table gives
//! the paper's value and the cause, so drift in either direction fails.

use pulse::accel::{estimate, run_closed_loop, AccelConfig, AccelTiming, Accelerator, PipelineOrg};
use pulse::baselines::{run_swap_cache, RpcConfig, SwapConfig};
use pulse::core::{cxl_study, CxlConfig};
use pulse::dispatch::{compile, samples, DispatchEngine, Expr, IterSpec, Stmt};
use pulse::ds::{
    BtrdbTree, BuildCtx, DsError, HashMapDs, LinkedList, ListKind, TreePlacement, WiredTigerTree,
};
use pulse::energy::{energy_per_op, perf_per_watt, SystemKind};
use pulse::isa::{IterState, MemBus, Width};
use pulse::mem::{ClusterAllocator, ClusterMemory, Perms, Placement, RangeTable};
use pulse::net::{CodeBlob, IterPacket, IterStatus, RequestId};
use pulse::workloads::{AppRequest, Application, Distribution, StartPtr, TraversalStage};
use pulse::{
    AppSpec, BaselineKind, BtrdbConfig, CacheConfig, ClusterConfig, DispatchConfig, Engine,
    PulseBuilder, PulseMode, Runtime, WiredTigerConfig, YcsbWorkload,
};
use pulse_bench::{
    baseline_app_factory, cached_baseline_webservice_factory, cached_pulse_webservice_factory,
    pulse_app_factory, pulse_ycsb_factory, sweep, AppKind, DEFAULT_GRANULARITY,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The p99 SLO (µs) a rung must meet to count toward the sustained load.
const SLO_P99_US: f64 = 150.0;
/// Offered loads (kops): the lowest rung sits below every system's
/// capacity, so its p50 is the unloaded latency.
const LADDER: [f64; 6] = [2.0, 100.0, 200.0, 400.0, 800.0, 1600.0];
/// Requests per rung.
const REQUESTS: usize = 200;
/// Closed-loop clients of the replay baselines.
const CLIENTS: usize = 16;
const SEED: u64 = 42;

const WEBSERVICE: AppKind = AppKind::WebService(YcsbWorkload::C);

type Factory = Box<dyn Fn() -> (Box<dyn Engine>, Vec<AppRequest>) + Send + Sync>;

// ------------------------------------------------------------- harness

/// What one open-loop curve shows: the load it sustains at the SLO and
/// its unloaded latency.
#[derive(Debug, Clone, Copy)]
struct Curve {
    /// `max_load_under_p99(SLO_P99_US)`, kops; 0 when no rung qualifies.
    sustained_kops: f64,
    /// p50 of the lowest rung, µs.
    p50_us: f64,
}

fn curve(make: impl Fn() -> (Box<dyn Engine>, Vec<AppRequest>)) -> Curve {
    let report = sweep("claim", &LADDER, SEED, make).expect("sweep runs");
    Curve {
        sustained_kops: report.max_load_under_p99(SLO_P99_US).unwrap_or(0.0),
        p50_us: report.points[0].p50_us,
    }
}

/// The systems of Figs. 7 and 8, each over the canonical sweep deployment.
#[derive(Debug, Clone, Copy)]
enum System {
    Pulse,
    Rpc,
    RpcArm,
    CacheRpc,
    CacheBased,
}

fn factory(system: System, kind: AppKind, nodes: usize) -> Factory {
    let baseline = |b: BaselineKind| -> Factory {
        Box::new(baseline_app_factory(kind, nodes, b, CLIENTS, REQUESTS))
    };
    match system {
        System::Pulse => Box::new(pulse_app_factory(
            kind,
            nodes,
            1,
            REQUESTS,
            DispatchConfig::default(),
        )),
        System::Rpc => baseline(BaselineKind::Rpc(RpcConfig::rpc())),
        System::RpcArm => baseline(BaselineKind::Rpc(RpcConfig::rpc_arm())),
        System::CacheRpc => baseline(BaselineKind::Rpc(RpcConfig::cache_rpc(8 << 20))),
        System::CacheBased => baseline(swap_cache()),
    }
}

/// The cache-based (swap) baseline at the sweep's 8 MiB cache.
fn swap_cache() -> BaselineKind {
    BaselineKind::SwapCache(SwapConfig {
        cache_bytes: 8 << 20,
        ..SwapConfig::default()
    })
}

/// [`curve`] of `system` over `kind` on `nodes` memory nodes, measured
/// once per test binary (several claims read the same curves).
fn measured(system: System, kind: AppKind, nodes: usize) -> Curve {
    static CURVES: OnceLock<Mutex<HashMap<String, Curve>>> = OnceLock::new();
    let key = format!("{system:?}/{kind:?}/{nodes}");
    let curves = CURVES.get_or_init(Default::default);
    if let Some(c) = curves.lock().unwrap().get(&key) {
        return *c;
    }
    let c = curve(factory(system, kind, nodes));
    curves.lock().unwrap().insert(key, c);
    c
}

/// `value` must lie in the closed band `[lo, hi]`.
fn within(what: &str, value: f64, (lo, hi): (f64, f64)) -> Result<(), String> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(format!("{what}: {value:.3} outside [{lo}, {hi}]"))
    }
}

fn holds(what: &str, ok: bool) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: does not hold"))
    }
}

/// Asserts that a mutated input breaks `claim`, and that it breaks it in
/// the check named by `needle`.
fn assert_rejects(claim: Result<(), String>, needle: &str) {
    let err = claim.expect_err("the mutated input must fail the claim");
    assert!(err.contains(needle), "failed for another reason: {err}");
}

/// The canonical deployment of `kind` on a pulse rack, for claims that
/// read its memory or functional execution rather than run it.
fn deployment(kind: AppKind, nodes: usize) -> (Runtime, Box<dyn Application>) {
    PulseBuilder::new()
        .nodes(nodes)
        .granularity(DEFAULT_GRANULARITY)
        .build_with(kind.build(nodes))
        .expect("wire the deployment")
}

/// A WiredTiger or BTrDB deployment (as [`AppKind::build`] makes it) with
/// its tree nodes placed by `placement`, for the claims about where a
/// tree's nodes land.
fn tree(
    kind: AppKind,
    placement: TreePlacement,
) -> impl FnOnce(&mut BuildCtx<'_>) -> Result<Box<dyn Application>, DsError> {
    move |ctx| {
        Ok(match kind {
            AppKind::Btrdb(window) => Box::new(
                BtrdbConfig {
                    duration_secs: 900,
                    window_secs: window,
                    placement,
                    ..Default::default()
                }
                .build_app(ctx)?,
            ),
            _ => Box::new(
                WiredTigerConfig {
                    keys: 30_000,
                    placement,
                    ..Default::default()
                }
                .build_app(ctx)?,
            ),
        })
    }
}

// ------------------------------------------------------------ Fig. 2

/// Fig. 2(a) inputs, per application on the swap-based system: (traversal
/// share, mean latency µs) with the cache at 1, 1/4 and 1/16 of the
/// working set.
struct Fig02a {
    apps: Vec<(&'static str, [(f64, f64); 3])>,
}

fn fig02a_inputs() -> &'static Fig02a {
    static M: OnceLock<Fig02a> = OnceLock::new();
    M.get_or_init(|| {
        let apps: [(&'static str, AppKind); 3] = [
            ("WebService", WEBSERVICE),
            ("WiredTiger", AppKind::WiredTiger),
            ("BTrDB", AppKind::Btrdb(2)),
        ];
        let apps = apps
            .into_iter()
            .map(|(name, kind)| {
                let rows = [0u32, 2, 4].map(|shift| {
                    let (mut rt, mut app) = deployment(kind, 1);
                    let reqs: Vec<AppRequest> = (0..REQUESTS).map(|_| app.next_request()).collect();
                    let rep = run_swap_cache(
                        rt.memory_mut(),
                        &reqs,
                        8,
                        SwapConfig {
                            cache_bytes: (app.working_set_bytes() >> shift).max(1 << 16),
                            ..SwapConfig::default()
                        },
                    );
                    (rep.traversal_fraction(), rep.latency.mean.as_micros_f64())
                });
                (name, rows)
            })
            .collect();
        Fig02a { apps }
    })
}

/// Fig. 2(a): pointer traversals dominate execution on swap-based
/// disaggregated memory (paper at full cache: WebService 13.6%, WiredTiger
/// 63.7%, BTrDB 55.8%), and both the share and the total time grow as the
/// cache shrinks.
fn fig02a_claim(m: &Fig02a) -> Result<(), String> {
    // Divergence: the swap model counts every access of a traversal, faults
    // included, as traversal time, so traversals are 93–99% of it.
    const MEASURED: [(f64, f64); 3] = [(0.84, 1.0), (0.89, 1.0), (0.89, 1.0)];
    for ((app, rows), band) in m.apps.iter().zip(MEASURED) {
        within(
            &format!("{app} traversal share at full cache (measured)"),
            rows[0].0,
            band,
        )?;
        holds(
            &format!("{app} traversal share grows as the cache shrinks"),
            rows[0].0 <= rows[1].0 && rows[1].0 <= rows[2].0,
        )?;
        holds(
            &format!("{app} latency grows as the cache shrinks"),
            rows[0].1 <= rows[1].1 && rows[1].1 < rows[2].1,
        )?;
    }
    Ok(())
}

#[test]
fn fig02a_traversal_share() {
    fig02a_claim(fig02a_inputs()).unwrap();
}

#[test]
fn fig02a_rejects_a_cache_that_never_shrinks() {
    let m = fig02a_inputs();
    let flat = Fig02a {
        apps: m
            .apps
            .iter()
            .map(|(app, rows)| (*app, [rows[0]; 3]))
            .collect(),
    };
    assert_rejects(fig02a_claim(&flat), "latency grows as the cache shrinks");
}

/// Node crossings per request of a tree deployment on four memory nodes.
fn crossings(kind: AppKind, placement: TreePlacement, granularity: u64) -> Vec<u64> {
    let (mut rt, mut app) = PulseBuilder::new()
        .nodes(4)
        .granularity(granularity)
        .build_with(tree(kind, placement))
        .expect("wire the deployment");
    (0..REQUESTS)
        .map(|_| {
            let req = app.next_request();
            rt.execute_functional(&req)
                .expect("functional run")
                .response
                .node_crossings
        })
        .collect()
}

const GRANULARITIES: [u64; 3] = [1 << 20, 64 << 10, 4 << 10];

/// Fig. 2(b)/(c) inputs: crossings per request of WiredTiger and of BTrDB
/// at each of [`GRANULARITIES`].
fn fig02bc_inputs(btrdb_placement: TreePlacement) -> [[Vec<u64>; 3]; 2] {
    [
        GRANULARITIES.map(|g| crossings(AppKind::WiredTiger, TreePlacement::Policy, g)),
        GRANULARITIES.map(|g| crossings(AppKind::Btrdb(2), btrdb_placement, g)),
    ]
}

/// Fig. 2(b)/(c): most requests cross memory nodes even at coarse
/// allocation (paper: WiredTiger >97%, BTrDB >75% at 1 GB), and finer
/// granularity shifts the whole distribution of crossings up.
fn fig02bc_claim(m: &[[Vec<u64>; 3]; 2]) -> Result<(), String> {
    let share = |xs: &[u64]| xs.iter().filter(|&&c| c > 0).count() as f64 / xs.len() as f64;
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let p90 = |xs: &[u64]| {
        let mut xs = xs.to_vec();
        xs.sort_unstable();
        xs[(xs.len() - 1) * 9 / 10]
    };
    let [wt, btrdb] = m;
    // Divergence: the scaled 30k-key tree spans few 1 MiB extents, so only
    // 63% of WiredTiger lookups cross at the coarsest granularity.
    within(
        "WiredTiger share crossing at 1 MiB (measured)",
        share(&wt[0]),
        (0.57, 0.69),
    )?;
    within(
        "BTrDB share crossing at 1 MiB",
        share(&btrdb[0]),
        (0.75, 1.0),
    )?;
    for (app, xs) in [("WiredTiger", wt), ("BTrDB", btrdb)] {
        holds(
            &format!("{app} crossings grow as extents shrink"),
            mean(&xs[0]) <= mean(&xs[1]) && mean(&xs[1]) < mean(&xs[2]),
        )?;
        holds(
            &format!("{app} 90th-percentile crossings grow as extents shrink"),
            p90(&xs[0]) <= p90(&xs[1]) && p90(&xs[1]) < p90(&xs[2]),
        )?;
    }
    Ok(())
}

#[test]
fn fig02bc_distributed_traversals() {
    fig02bc_claim(&fig02bc_inputs(TreePlacement::Policy)).unwrap();
}

#[test]
fn fig02bc_rejects_key_partitioned_btrdb() {
    let partitioned = fig02bc_inputs(TreePlacement::Partitioned { nodes: 4 });
    assert_rejects(fig02bc_claim(&partitioned), "BTrDB share crossing");
}

// ------------------------------------------------------------ Fig. 7

const FIG07_APPS: [AppKind; 3] = [WEBSERVICE, AppKind::WiredTiger, AppKind::Btrdb(4)];

/// Fig. 7 inputs: per application, (pulse, RPC, cache-based) curves on one
/// and on four memory nodes.
#[derive(Clone)]
struct Fig07 {
    cells: Vec<(AppKind, [[Curve; 3]; 2])>,
}

fn fig07_inputs() -> Fig07 {
    let cells = FIG07_APPS
        .iter()
        .map(|&kind| {
            let at = |nodes| {
                [System::Pulse, System::Rpc, System::CacheBased]
                    .map(|system| measured(system, kind, nodes))
            };
            (kind, [at(1), at(4)])
        })
        .collect();
    Fig07 { cells }
}

/// Measured bands for the Fig. 7 ratios that diverge from the paper, per
/// application: cache-based/pulse unloaded latency (paper 9–34×) and
/// pulse/RPC unloaded latency on one node (paper 1–1.4×).
const FIG07_MEASURED: [((f64, f64), (f64, f64)); 3] = [
    ((1.47, 1.80), (0.84, 0.99)),
    ((1.13, 1.38), (1.70, 2.08)),
    ((1.60, 1.95), (2.30, 2.81)),
];

/// Fig. 7: cache-based is 9–34× slower than pulse, RPC is 1–1.4× faster on
/// one node, pulse wins distributed, and throughput grows with node count.
fn fig07_claim(m: &Fig07) -> Result<(), String> {
    for ((kind, [one, four]), (swap_band, rpc_band)) in m.cells.iter().zip(FIG07_MEASURED) {
        let [pulse1, rpc1, swap1] = one;
        let [pulse4, rpc4, _] = four;
        within(
            &format!("{kind:?} cache-based/pulse latency (measured)"),
            swap1.p50_us / pulse1.p50_us,
            swap_band,
        )?;
        within(
            &format!("{kind:?} 1-node pulse/RPC latency (measured)"),
            pulse1.p50_us / rpc1.p50_us,
            rpc_band,
        )?;
        holds(
            &format!("{kind:?} pulse throughput grows with node count"),
            pulse4.sustained_kops > pulse1.sustained_kops,
        )?;
        // Divergence: on BTrDB's ~170-iteration scans RPC out-sustains
        // pulse even on four nodes.
        let pulse_wins = !matches!(kind, AppKind::Btrdb(_));
        holds(
            &format!("{kind:?} pulse out-sustains RPC on four nodes: {pulse_wins}"),
            (pulse4.sustained_kops > rpc4.sustained_kops) == pulse_wins,
        )?;
    }
    Ok(())
}

#[test]
fn fig07_end_to_end() {
    let m = fig07_inputs();
    fig07_claim(&m).unwrap();
}

#[test]
fn fig07_rejects_doubled_distributed_rpc() {
    let mut m = fig07_inputs();
    for (_, [_, four]) in &mut m.cells {
        four[1].sustained_kops *= 2.0;
    }
    assert_rejects(fig07_claim(&m), "pulse out-sustains RPC on four nodes");
}

// ------------------------------------------------------------ Fig. 8

/// Fig. 8 inputs: single-node WebService sustained loads (kops) and the pulse
/// accelerator's pipeline provisioning, which sets its power.
struct Fig08 {
    pulse_kops: f64,
    rpc_kops: f64,
    org: PipelineOrg,
}

fn fig08_inputs() -> Fig08 {
    Fig08 {
        pulse_kops: measured(System::Pulse, WEBSERVICE, 1).sustained_kops,
        rpc_kops: measured(System::Rpc, WEBSERVICE, 1).sustained_kops,
        org: ClusterConfig::default().accel.org,
    }
}

/// Fig. 8: pulse uses 4.5–5× less energy per operation than RPC, and an
/// ASIC realization a further 6.3–7×. §6.1 compares at a request rate
/// both systems sustain, so each is charged at the lower of the two sustained loads.
fn fig08_claim(m: &Fig08) -> Result<(), String> {
    holds(
        "both systems sustain load at the SLO",
        m.pulse_kops > 0.0 && m.rpc_kops > 0.0,
    )?;
    let PipelineOrg::Disaggregated { logic, memory } = m.org else {
        return Err("pulse's power model needs a disaggregated organization".into());
    };
    let common = m.pulse_kops.min(m.rpc_kops) * 1e3;
    let rpc = energy_per_op(SystemKind::Rpc, common);
    let pulse = energy_per_op(SystemKind::Pulse { logic, memory }, common);
    let asic = energy_per_op(SystemKind::PulseAsic { logic, memory }, common);
    within("RPC/pulse energy per op", rpc / pulse, (4.5, 5.0))?;
    within("pulse/ASIC energy per op", pulse / asic, (6.3, 7.0))
}

#[test]
fn fig08_energy() {
    fig08_claim(&fig08_inputs()).unwrap();
    // RPC-ARM and Cache+RPC run on the same path; their energy is charged
    // at their own sustained loads, which must exist for Fig. 8's bars.
    for system in [System::RpcArm, System::CacheRpc] {
        assert!(
            measured(system, WEBSERVICE, 1).sustained_kops > 0.0,
            "{system:?}"
        );
    }
}

#[test]
fn fig08_rejects_an_unprovisioned_accelerator() {
    let m = Fig08 {
        org: PipelineOrg::Disaggregated {
            logic: 1,
            memory: 1,
        },
        ..fig08_inputs()
    };
    assert_rejects(fig08_claim(&m), "RPC/pulse energy per op");
}

// ------------------------------------------------------------ Fig. 9

/// pulse or pulse-acc over a tree deployment whose nodes are striped
/// across memory nodes (so traversals genuinely cross them).
fn striped_tree_factory(kind: AppKind, nodes: usize, mode: PulseMode) -> Factory {
    Box::new(move || {
        let (runtime, mut app) = PulseBuilder::new()
            .nodes(nodes)
            .mode(mode)
            .granularity(64 << 10)
            .build_with(tree(kind, TreePlacement::Policy))
            .expect("wire pulse rack");
        let reqs = (0..REQUESTS).map(|_| app.next_request()).collect();
        (Box::new(runtime) as Box<dyn Engine>, reqs)
    })
}

/// Fig. 9 inputs: per application, (pulse, pulse-acc) curves on one and
/// on four memory nodes.
#[derive(Clone)]
struct Fig09 {
    apps: Vec<(AppKind, [[Curve; 2]; 2])>,
}

fn fig09_inputs() -> &'static Fig09 {
    static M: OnceLock<Fig09> = OnceLock::new();
    M.get_or_init(|| Fig09 {
        apps: [AppKind::WiredTiger, AppKind::Btrdb(1)]
            .into_iter()
            .map(|kind| {
                let at = |nodes| {
                    [PulseMode::Pulse, PulseMode::PulseAcc]
                        .map(|mode| curve(striped_tree_factory(kind, nodes, mode)))
                };
                (kind, [at(1), at(4)])
            })
            .collect(),
    })
}

/// Measured pulse-acc/pulse distributed latency per application (paper
/// 1.02–1.15×).
const FIG09_MEASURED: [(f64, f64); 2] = [(1.16, 1.30), (1.16, 1.36)];

/// Fig. 9: pulse and pulse-acc are identical on one node; distributed,
/// bouncing crossings through the CPU costs pulse-acc 1.02–1.15× latency
/// at unchanged throughput.
fn fig09_claim(m: &Fig09) -> Result<(), String> {
    for ((kind, [one, four]), band) in m.apps.iter().zip(FIG09_MEASURED) {
        within(
            &format!("{kind:?} 1-node pulse-acc/pulse latency"),
            one[1].p50_us / one[0].p50_us,
            (1.0, 1.0),
        )?;
        within(
            &format!("{kind:?} 4-node pulse-acc/pulse latency (measured)"),
            four[1].p50_us / four[0].p50_us,
            band,
        )?;
        within(
            &format!("{kind:?} 4-node pulse-acc/pulse throughput"),
            four[1].sustained_kops / four[0].sustained_kops,
            (0.9, 1.1),
        )?;
    }
    Ok(())
}

#[test]
fn fig09_pulse_acc() {
    fig09_claim(fig09_inputs()).unwrap();
}

#[test]
fn fig09_rejects_a_distributed_single_node() {
    let mut m = fig09_inputs().clone();
    for (_, [one, four]) in &mut m.apps {
        *one = *four;
    }
    assert_rejects(fig09_claim(&m), "1-node pulse-acc/pulse latency");
}

// ----------------------------------------------------------- Fig. 10

/// Fig. 10 inputs: the accelerator's per-component time per packet
/// (network stack) or per iteration (the rest), ns, over single-node
/// WebService, in the paper's order.
fn fig10_inputs(timing: AccelTiming) -> [f64; 6] {
    let config = ClusterConfig {
        accel: AccelConfig {
            timing,
            ..AccelConfig::default()
        },
        ..ClusterConfig::default()
    };
    let (mut rt, mut app) = PulseBuilder::new()
        .config(config)
        .window(4)
        .build_with(WEBSERVICE.build(1))
        .expect("wire pulse rack");
    for _ in 0..REQUESTS {
        rt.submit(app.next_request()).expect("valid request");
    }
    rt.drain();
    let stats = rt.cluster().accelerators()[0].stats();
    let iters = stats.iterations as f64;
    let c = stats.components;
    [
        // RX + TX of one request.
        c.net_stack.as_nanos_f64() / stats.done as f64 / 2.0,
        c.scheduler.as_nanos_f64() / iters,
        c.tcam.as_nanos_f64() / iters,
        c.interconnect.as_nanos_f64() / iters,
        c.dram.as_nanos_f64() / iters,
        c.logic.as_nanos_f64() / iters,
    ]
}

/// Fig. 10: the accelerator's latency breakdown — network stack 426.3 ns,
/// scheduler 5.1, TCAM 47, interconnect 22, memory controller 110, logic
/// 10 — each held to ±10%.
fn fig10_claim(ns: &[f64; 6]) -> Result<(), String> {
    let paper = [
        ("network stack", 426.3),
        ("scheduler", 5.1),
        ("TCAM", 47.0),
        ("interconnect", 22.0),
        ("memory controller", 110.0),
        ("logic", 10.0),
    ];
    for (i, ((name, paper_ns), got)) in paper.into_iter().zip(ns).enumerate() {
        let band = match i {
            // Divergences: the scheduler decides twice per iteration (issue
            // and hand-off), and a hash-find iteration runs three 4 ns
            // instructions.
            1 => (9.2, 11.2),
            5 => (11.1, 13.2),
            _ => (paper_ns * 0.9, paper_ns * 1.1),
        };
        within(&format!("{name} ns"), *got, band)?;
    }
    Ok(())
}

#[test]
fn fig10_component_latencies() {
    fig10_claim(&fig10_inputs(AccelTiming::default())).unwrap();
}

#[test]
fn fig10_rejects_the_direct_wired_interconnect() {
    let ns = fig10_inputs(AccelTiming::without_interconnect_ip());
    assert_rejects(fig10_claim(&ns), "interconnect ns");
}

// ------------------------------------- accelerator harness (Table 4, Fig. 11, C.2)

/// A single-node linked chain of `len` cells of `cell_bytes` each, its
/// head, and the node's translation table.
fn chain(len: u64, cell_bytes: u64) -> (ClusterMemory, u64, RangeTable) {
    let mut mem = ClusterMemory::new(1);
    let mut alloc = ClusterAllocator::new(Placement::Single(0), 1 << 20);
    let addrs: Vec<u64> = (0..len)
        .map(|_| alloc.alloc(&mut mem, cell_bytes).unwrap())
        .collect();
    for (i, &a) in addrs.iter().enumerate() {
        mem.write_word(a, i as u64, 8).unwrap();
        mem.write_word(a + 8, i as u64, 8).unwrap();
        mem.write_word(a + 16, addrs.get(i + 1).copied().unwrap_or(0), 8)
            .unwrap();
    }
    let ranges: Vec<_> = mem
        .node_ranges(0)
        .iter()
        .map(|&(s, e)| (s, e, Perms::RW))
        .collect();
    let xlate = RangeTable::build(64, &ranges).unwrap();
    (mem, addrs[0], xlate)
}

/// One accelerator walking `hops` hops of a chain per request, closed-loop
/// at `concurrency`.
struct AccelRun {
    org: PipelineOrg,
    timing: AccelTiming,
    spec: IterSpec,
    cell_bytes: u64,
    hops: u64,
    requests: u64,
    concurrency: usize,
}

impl AccelRun {
    /// WebService's hash-bucket walk: `hops` hops of a 24 B chain.
    fn hash_walk(org: PipelineOrg, hops: u64, concurrency: usize) -> AccelRun {
        AccelRun {
            org,
            timing: AccelTiming::default(),
            spec: samples::hash_find_spec(),
            cell_bytes: 24,
            hops,
            requests: 400,
            concurrency,
        }
    }

    fn run(&self) -> pulse::accel::HarnessReport {
        let (mut mem, head, xlate) = chain(self.hops + 1, self.cell_bytes);
        let prog = Arc::new(compile(&self.spec).unwrap());
        let mut accel = Accelerator::new(
            AccelConfig {
                org: self.org,
                timing: self.timing,
                ..AccelConfig::default()
            },
            0,
            xlate,
        );
        run_closed_loop(
            &mut accel,
            &mut mem,
            |i| {
                let mut state = IterState::new(&prog, head);
                state.set_scratch_u64(0, self.hops);
                IterPacket {
                    id: RequestId { cpu: 0, seq: i },
                    code: CodeBlob::new(prog.clone()),
                    state,
                    status: IterStatus::InFlight,
                    piggyback_bytes: 0,
                    touched: Vec::new(),
                }
            },
            self.requests,
            self.concurrency,
        )
    }
}

// ----------------------------------------------------------- Fig. 11

/// Memory pipelines swept against one logic pipeline (η = 1/n).
const FIG11_MEMORY: [usize; 5] = [1, 2, 4, 8, 16];

/// Fig. 11 inputs: hash-walk throughput (ops/s) per memory-pipeline count.
fn fig11_inputs() -> [f64; 5] {
    FIG11_MEMORY.map(|n| {
        let org = PipelineOrg::Disaggregated {
            logic: 1,
            memory: n,
        };
        AccelRun::hash_walk(org, 63, 2 * n + 2).run().throughput
    })
}

/// Fig. 11: decreasing η = m/n from 1 to 1/4 improves performance per
/// watt by about 1.9×, and gains continue toward the workload's t_c/t_d
/// (~1/16).
fn fig11_claim(throughput: &[f64; 5]) -> Result<(), String> {
    let ppw: Vec<f64> = FIG11_MEMORY
        .iter()
        .zip(throughput)
        .map(|(&n, &t)| perf_per_watt(1, n, t))
        .collect();
    // Divergence: throughput scales linearly in n (each pipe is held for
    // its whole fetch), so perf/W gains outrun the paper's.
    within(
        "perf/W gain from η = 1 to 1/4 (measured)",
        ppw[2] / ppw[0],
        (2.16, 2.65),
    )?;
    holds(
        "perf/W keeps improving toward η = 1/16",
        ppw.windows(2).all(|w| w[1] > w[0]),
    )
}

#[test]
fn fig11_eta_perf_per_watt() {
    fig11_claim(&fig11_inputs()).unwrap();
}

#[test]
fn fig11_rejects_memory_pipes_that_add_no_throughput() {
    let mut t = fig11_inputs();
    // Pipes 9–16 add power but no throughput.
    t[4] = t[3];
    assert_rejects(fig11_claim(&t), "keeps improving");
}

// ------------------------------------------------------------ Fig. 12

/// Fig. 12 inputs: CXL-slowdown improvement with pulse, per application,
/// on one and on four memory nodes.
fn fig12_inputs() -> Vec<(AppKind, [f64; 2])> {
    // Caches scaled as in §7: the working set dwarfs the DRAM cache, and
    // the L3 is a rounding error against it.
    let cfg = CxlConfig {
        l3_bytes: 256 << 10,
        dram_cache_bytes: 1 << 20,
        ..CxlConfig::default()
    };
    [
        WEBSERVICE,
        AppKind::WiredTiger,
        AppKind::Btrdb(1),
        AppKind::Btrdb(8),
    ]
    .into_iter()
    .map(|kind| {
        let at = |nodes| {
            let (mut rt, mut app) = deployment(kind, nodes);
            let reqs: Vec<AppRequest> = (0..REQUESTS).map(|_| app.next_request()).collect();
            cxl_study(rt.memory_mut(), &reqs, nodes, cfg).improvement()
        };
        (kind, [at(1), at(4)])
    })
    .collect()
}

/// Measured improvement bands per application (paper: 4.2–5.2× on one
/// node, 3–5× on four).
const FIG12_MEASURED: [(f64, f64); 4] = [(1.53, 1.87), (0.82, 1.03), (1.57, 1.94), (2.07, 2.53)];

/// Fig. 12: pulse cuts CXL memory's slowdown by 4.2–5.2× on one node and
/// 3–5× on four.
fn fig12_claim(m: &[(AppKind, [f64; 2])]) -> Result<(), String> {
    for ((kind, improvement), band) in m.iter().zip(FIG12_MEASURED) {
        for (nodes, x) in [1, 4].into_iter().zip(improvement) {
            within(
                &format!("{kind:?} {nodes}-node CXL improvement (measured)"),
                *x,
                band,
            )?;
        }
    }
    Ok(())
}

#[test]
fn fig12_cxl() {
    let m = fig12_inputs();
    fig12_claim(&m).unwrap();
}

// ----------------------------------------------------------- Table 3

/// Table 3 inputs: per workload, the dispatch engine's static t_c/t_d and
/// the mean iterations per request over single-node functional runs.
fn table3_inputs(specs: [IterSpec; 3]) -> [(f64, f64); 4] {
    let engine = DispatchEngine::default();
    let ratio = |spec: &IterSpec| engine.prepare(spec).unwrap().analysis.ratio();
    let iterations = |kind: AppKind| {
        let (mut rt, mut app) = deployment(kind, 1);
        let total: u64 = (0..REQUESTS)
            .map(|_| {
                let req = app.next_request();
                rt.execute_functional(&req)
                    .expect("functional run")
                    .response
                    .iterations
            })
            .sum();
        total as f64 / REQUESTS as f64
    };
    let [hash, tree, aggregate] = specs;
    let aggregate = ratio(&aggregate);
    [
        (ratio(&hash), iterations(WEBSERVICE)),
        (ratio(&tree), iterations(AppKind::WiredTiger)),
        (aggregate, iterations(AppKind::Btrdb(1))),
        (aggregate, iterations(AppKind::Btrdb(8))),
    ]
}

fn table3_specs() -> [IterSpec; 3] {
    [
        HashMapDs::find_spec(),
        WiredTigerTree::locate_spec(),
        BtrdbTree::aggregate_spec(),
    ]
}

/// Table 3: t_c/t_d of 0.06 (WebService), 0.63 (WiredTiger) and 0.71
/// (BTrDB), and 48, 25, 38 and 227 iterations (WebService, WiredTiger,
/// BTrDB 1 s, BTrDB 8 s), each held to ±25%.
fn table3_claim(m: &[(f64, f64); 4]) -> Result<(), String> {
    let paper = [
        ("WebService", 0.06, 48.0),
        ("WiredTiger", 0.63, 25.0),
        ("BTrDB 1s", 0.71, 38.0),
        ("BTrDB 8s", 0.71, 227.0),
    ];
    for ((name, ratio, iters), (got_ratio, got_iters)) in paper.into_iter().zip(m) {
        within(
            &format!("{name} t_c/t_d"),
            *got_ratio,
            (ratio * 0.75, ratio * 1.25),
        )?;
        // Divergence: 8 s windows span more leaves of the scaled tree.
        let band = if name == "BTrDB 8s" {
            (294.0, 360.0)
        } else {
            (iters * 0.75, iters * 1.25)
        };
        within(&format!("{name} iterations"), *got_iters, band)?;
    }
    Ok(())
}

#[test]
fn table3_workload_characteristics() {
    let m = table3_inputs(table3_specs());
    table3_claim(&m).unwrap();
}

#[test]
fn table3_rejects_a_tree_walk_for_the_hash_lookup() {
    let [_, tree, aggregate] = table3_specs();
    let m = table3_inputs([WiredTigerTree::locate_spec(), tree, aggregate]);
    assert_rejects(table3_claim(&m), "WebService t_c/t_d");
}

// ----------------------------------------------------------- Table 4

/// Table 4's organizations: the four coupled designs, then pulse's (m, n).
const TABLE4_COUPLED: [usize; 4] = [1, 2, 3, 4];
const TABLE4_PULSE: [(usize, usize); 8] = [
    (1, 1),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 4),
    (3, 4),
    (4, 1),
    (4, 4),
];

fn table4_orgs() -> impl Iterator<Item = PipelineOrg> {
    TABLE4_COUPLED
        .into_iter()
        .map(|cores| PipelineOrg::Coupled { cores })
        .chain(
            TABLE4_PULSE
                .into_iter()
                .map(|(logic, memory)| PipelineOrg::Disaggregated { logic, memory }),
        )
}

/// Table 4 inputs: throughput (Mops) of a 48-hop hash walk per
/// organization, in [`table4_orgs`] order, plus the area of pulse's (1, 4)
/// Pareto point and of four coupled cores (combined LUT + BRAM %).
struct Table4 {
    mops: Vec<f64>,
    pulse_area: f64,
    coupled_area: f64,
}

fn table4_inputs() -> Table4 {
    Table4 {
        mops: table4_orgs()
            .map(|org| AccelRun::hash_walk(org, 48, 16).run().throughput / 1e6)
            .collect(),
        pulse_area: estimate(PipelineOrg::Disaggregated {
            logic: 1,
            memory: 4,
        })
        .combined(),
        coupled_area: estimate(PipelineOrg::Coupled { cores: 4 }).combined(),
    }
}

/// Table 4: pulse's (1, 4) point saves 38% area (held to ±5 points) over
/// four coupled cores while matching their throughput; throughput grows
/// with memory pipelines and saturates once they cover the workload.
fn table4_claim(m: &Table4) -> Result<(), String> {
    within(
        "(1,4) area saving over 4 coupled cores",
        1.0 - m.pulse_area / m.coupled_area,
        (0.33, 0.43),
    )?;
    let (coupled, pulse) = m.mops.split_at(TABLE4_COUPLED.len());
    // Divergence: absolute throughput is 0.10–0.45 Mops against the
    // paper's 0.37–1.24, because the harness's requests walk dependent
    // 48-hop chains one fetch at a time.
    let (lo, hi) = m
        .mops
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    within("lowest Mops (measured)", lo, (0.093, 0.114))?;
    within("highest Mops (measured)", hi, (0.41, 0.50))?;
    holds(
        "(1,n) throughput grows with n",
        pulse[..4].windows(2).all(|w| w[1] > w[0]),
    )?;
    holds(
        "throughput saturates at n = 4",
        pulse[4..6]
            .iter()
            .chain(&pulse[7..])
            .all(|&x| (x / pulse[3] - 1.0).abs() < 0.05),
    )?;
    holds("(1,4) matches 4 coupled cores", pulse[3] >= coupled[3])
}

#[test]
fn table4_coupled_vs_disaggregated() {
    let m = table4_inputs();
    table4_claim(&m).unwrap();
}

#[test]
fn table4_rejects_the_coupled_area_model() {
    let m = Table4 {
        pulse_area: estimate(PipelineOrg::Coupled { cores: 4 }).combined(),
        ..table4_inputs()
    };
    assert_rejects(table4_claim(&m), "area saving");
}

// ------------------------------------------------- appendix Fig. 5

/// pulse over a two-node tree whose 4 KiB extents are placed randomly, or
/// partitioned by key.
fn allocation_factory(kind: AppKind, partitioned: bool) -> Factory {
    Box::new(move || {
        let nodes = 2;
        let (extents, placement) = if partitioned {
            (Placement::Striped, TreePlacement::Partitioned { nodes })
        } else {
            (Placement::Random { seed: 77 }, TreePlacement::Policy)
        };
        let (runtime, mut app) = PulseBuilder::new()
            .nodes(nodes)
            .placement(extents)
            .granularity(4096)
            .build_with(tree(kind, placement))
            .expect("wire pulse rack");
        let reqs = (0..REQUESTS).map(|_| app.next_request()).collect();
        (Box::new(runtime) as Box<dyn Engine>, reqs)
    })
}

/// Measured random/partitioned latency per application (paper
/// 3.7–10.8×).
const APPENDIX_FIG5_MEASURED: [(f64, f64); 2] = [(1.47, 1.80), (1.29, 1.57)];

/// Appendix Fig. 5: randomly allocated distributed trees run 3.7–10.8×
/// slower than key-partitioned ones.
#[test]
fn appendix_fig5_allocation_policy() {
    for (kind, band) in [AppKind::WiredTiger, AppKind::Btrdb(2)]
        .into_iter()
        .zip(APPENDIX_FIG5_MEASURED)
    {
        let random = curve(allocation_factory(kind, false));
        let partitioned = curve(allocation_factory(kind, true));
        within(
            &format!("{kind:?} random/partitioned latency (measured)"),
            random.p50_us / partitioned.p50_us,
            band,
        )
        .unwrap();
    }
}

// ------------------------------------------------- appendix Fig. 6

/// Appendix Fig. 6 inputs: single-node WebService curves under uniform
/// keys for pulse, the compared system, and cache-based, the matching
/// Zipfian curves, and the four-node uniform pulse and compared curves.
struct AppendixFig6 {
    uniform: [Curve; 3],
    zipfian: [Curve; 3],
    distributed: [Curve; 2],
}

fn appendix_fig6_inputs(compared: BaselineKind) -> AppendixFig6 {
    let at = |nodes, dist| {
        [
            curve(cached_pulse_webservice_factory(
                nodes,
                1,
                REQUESTS,
                DispatchConfig::default(),
                CacheConfig::disabled(),
                dist,
            )),
            curve(cached_baseline_webservice_factory(
                nodes,
                compared.clone(),
                CLIENTS,
                REQUESTS,
                dist,
            )),
            curve(cached_baseline_webservice_factory(
                nodes,
                swap_cache(),
                CLIENTS,
                REQUESTS,
                dist,
            )),
        ]
    };
    let [pulse4, compared4, _] = at(4, Distribution::Uniform);
    AppendixFig6 {
        uniform: at(1, Distribution::Uniform),
        zipfian: at(1, Distribution::Zipfian),
        distributed: [pulse4, compared4],
    }
}

/// Appendix Fig. 6: under uniform keys every system is slower than under
/// Zipfian ones, cache-based stays slowest, pulse stays comparable to RPC
/// on one node (within the Fig. 7 factor of 1.4 either way) and ahead of
/// it distributed.
fn appendix_fig6_claim(m: &AppendixFig6) -> Result<(), String> {
    let [pulse, rpc, swap] = m.uniform;
    let systems = ["pulse", "compared", "cache-based"].into_iter();
    for ((name, u), z) in systems.zip(m.uniform).zip(m.zipfian) {
        holds(
            &format!("uniform is slower for {name}"),
            u.p50_us >= z.p50_us,
        )?;
    }
    within(
        "1-node pulse/compared latency",
        pulse.p50_us / rpc.p50_us,
        (1.0 / 1.4, 1.4),
    )?;
    holds(
        "cache-based is slowest",
        swap.p50_us > pulse.p50_us.max(rpc.p50_us),
    )?;
    holds(
        "pulse out-sustains on four nodes",
        m.distributed[0].sustained_kops > m.distributed[1].sustained_kops,
    )
}

#[test]
fn appendix_fig6_uniform() {
    appendix_fig6_claim(&appendix_fig6_inputs(BaselineKind::Rpc(RpcConfig::rpc()))).unwrap();
}

#[test]
fn appendix_fig6_rejects_cache_based_as_the_peer() {
    let m = appendix_fig6_inputs(swap_cache());
    assert_rejects(appendix_fig6_claim(&m), "1-node pulse/compared latency");
}

// ------------------------------------------- appendix C.2: pipelines

/// Appendix C.2 inputs: DRAM bandwidth (GB/s) and memory-pipeline
/// utilization for 1–4 memory pipelines walking 256 B windows, with the
/// vendor interconnect IP and without it.
fn memory_pipelines_inputs() -> [[(f64, f64); 4]; 2] {
    // Widen the list-find window to a full 256 B burst: the experiment
    // stresses memory, not logic.
    let mut spec = samples::list_find_spec();
    spec.body.insert(
        0,
        Stmt::SetScratch {
            off: 8,
            width: Width::B8,
            value: Expr::field_u64(248),
        },
    );
    [
        AccelTiming::default(),
        AccelTiming::without_interconnect_ip(),
    ]
    .map(|timing| {
        [1usize, 2, 3, 4].map(|n| {
            let run = AccelRun {
                org: PipelineOrg::Disaggregated {
                    logic: 1,
                    memory: n,
                },
                timing,
                spec: spec.clone(),
                cell_bytes: 256,
                hops: 255,
                requests: 200,
                concurrency: 2 * n + 2,
            }
            .run();
            (run.dram_bytes_per_sec / 1e9, run.memory_utilization)
        })
    })
}

/// Appendix C.2: two memory pipelines saturate the node's 25 GB/s, and
/// without the vendor interconnect IP the node peaks at 34 GB/s.
#[test]
fn appendix_c2_memory_pipelines() {
    let m = memory_pipelines_inputs();
    // Divergence: a pipeline is held for its whole dependent fetch, so each
    // adds ~1.35 GB/s (1.5 without the IP) and four reach only 5.4 (5.9).
    for (rows, per_pipe) in m.iter().zip([(1.22, 1.49), (1.33, 1.63)]) {
        for (n, (gbps, util)) in (1..=4).zip(rows) {
            within(
                &format!("{n}-pipe GB/s per pipe (measured)"),
                gbps / n as f64,
                per_pipe,
            )
            .unwrap();
            within(&format!("{n}-pipe utilization"), *util, (0.99, 1.0)).unwrap();
        }
    }
}

// ----------------------------------------- appendix C.2: sensitivity

/// Single-node WebService with a front-end cache sized to 1/16 of the
/// working set (the paper's 2 GB : 32 GB), under `dist`.
fn cached_curve(dist: Distribution) -> Curve {
    let (_, app) = deployment(WEBSERVICE, 1);
    let cache = CacheConfig::sized(app.working_set_bytes() / 16);
    curve(cached_pulse_webservice_factory(
        1,
        1,
        REQUESTS,
        DispatchConfig::default(),
        cache,
        dist,
    ))
}

/// Unloaded latency (µs) of `hops`-hop linked-list walks, one at a time.
fn hop_latency(hops: u64) -> f64 {
    let values: Vec<u64> = (0..hops).collect();
    let (mut rt, list) = PulseBuilder::new()
        .window(1)
        .build_with(|ctx| LinkedList::build(ctx, ListKind::Singly, &values))
        .expect("wire pulse rack");
    let prog = Arc::new(compile(&samples::list_find_spec()).unwrap());
    for _ in 0..20 {
        rt.submit(AppRequest::traversal_only(TraversalStage {
            program: prog.clone(),
            start: StartPtr::Fixed(list.head()),
            scratch_init: vec![(0, hops - 1)],
        }))
        .expect("valid request");
    }
    rt.drain().latency.mean.as_micros_f64()
}

/// Appendix C.2 sensitivity inputs.
#[derive(Clone)]
struct Sensitivity {
    /// (uniform, Zipfian) unloaded latency behind the 1/16 cache, µs.
    access: (f64, f64),
    /// Unloaded latency of the YCSB-A mix, µs, and its update share.
    writes: (f64, f64),
    /// (hops, latency µs) of linked-list walks.
    hops: Vec<(u64, f64)>,
}

fn sensitivity_inputs() -> &'static Sensitivity {
    static M: OnceLock<Sensitivity> = OnceLock::new();
    M.get_or_init(|| {
        let mixed = curve(pulse_ycsb_factory(
            YcsbWorkload::A,
            1,
            1,
            REQUESTS,
            DispatchConfig::default(),
            CacheConfig::disabled(),
        ));
        Sensitivity {
            access: (
                cached_curve(Distribution::Uniform).p50_us,
                cached_curve(Distribution::Zipfian).p50_us,
            ),
            // YCSB-A is half updates.
            writes: (mixed.p50_us, 0.5),
            hops: [8, 16, 32, 64, 128].map(|h| (h, hop_latency(h))).to_vec(),
        }
    })
}

/// Appendix C.2 sensitivity: Zipfian keys improve pulse by up to 1.33×
/// over uniform ones; without offloaded allocation writes cost up to 1.4×
/// the latency; end-to-end latency scales linearly with hop count.
fn sensitivity_claim(m: &Sensitivity) -> Result<(), String> {
    within(
        "Zipfian gain over uniform",
        m.access.0 / m.access.1,
        (1.0, 1.33),
    )?;
    // Latency per hop and the fixed offload round trip, from the end points.
    let (&(h0, l0), &(h1, l1)) = (m.hops.first().unwrap(), m.hops.last().unwrap());
    let per_hop = (l1 - l0) / (h1 - h0) as f64;
    for w in m.hops.windows(2) {
        let slope = (w[1].1 - w[0].1) / (w[1].0 - w[0].0) as f64;
        within("latency per hop is constant", slope / per_hop, (0.95, 1.05))?;
    }
    // Without offloaded allocation every write pays two more offload
    // round trips (§C.2); the round trip is the hop line's intercept.
    let round_trip = l0 - per_hop * h0 as f64;
    let (latency, write_share) = m.writes;
    within(
        "write latency without offloaded allocation",
        (latency + write_share * 2.0 * round_trip) / latency,
        (1.0, 1.4),
    )
}

#[test]
fn appendix_c2_sensitivity() {
    let m = sensitivity_inputs();
    sensitivity_claim(m).unwrap();
}

#[test]
fn appendix_c2_rejects_an_all_write_mix() {
    let m = Sensitivity {
        writes: (sensitivity_inputs().writes.0, 1.0),
        ..sensitivity_inputs().clone()
    };
    assert_rejects(sensitivity_claim(&m), "write latency");
}

// ------------------------------------------- appendix C.1: bandwidth

/// Bandwidth inputs per system on one and four memory nodes: (network
/// bytes, DRAM bytes) per request over the canonical WebService, and the
/// sustained load (kops) those bytes flow at.
#[derive(Debug, Clone, Copy)]
struct Traffic {
    net_bytes: f64,
    mem_bytes: f64,
    sustained_kops: f64,
}

fn traffic(system: System, nodes: usize) -> Traffic {
    let (mut engine, reqs) = factory(system, WEBSERVICE, nodes)();
    let rep = engine.execute(&reqs).expect("closed-loop run");
    let n = rep.completed as f64;
    Traffic {
        net_bytes: rep.net_bytes as f64 / n,
        mem_bytes: rep.mem_bytes as f64 / n,
        sustained_kops: measured(system, WEBSERVICE, nodes).sustained_kops,
    }
}

/// Appendix C.1: offloading systems (pulse, RPC) drive memory-node DRAM
/// traffic at modest network use — they ship results, not the data they
/// traverse — while the cache-based system moves far more data per
/// request and sustains nothing at the SLO.
fn bandwidth_claim(offloaded: &[Traffic], cache_based: &[Traffic]) -> Result<(), String> {
    for t in offloaded {
        holds(
            "offloaded network bytes stay below DRAM bytes",
            t.net_bytes < t.mem_bytes,
        )?;
        holds(
            "offloaded systems sustain load at the SLO",
            t.sustained_kops > 0.0,
        )?;
        let gbps = t.mem_bytes * t.sustained_kops * 1e3 / 1e9;
        holds(
            "offloaded DRAM traffic flows at the sustained load",
            gbps > 0.0,
        )?;
    }
    for (c, t) in cache_based.iter().zip(offloaded) {
        holds(
            "cache-based moves more bytes per request",
            c.net_bytes > t.net_bytes,
        )?;
        holds(
            "cache-based sustains nothing at the SLO",
            c.sustained_kops == 0.0,
        )?;
    }
    Ok(())
}

/// Bandwidth inputs: (offloaded, cache-based) traffic, pulse then RPC on
/// one node and then on four, each paired with cache-based on the same
/// node count.
fn bandwidth_inputs() -> &'static (Vec<Traffic>, Vec<Traffic>) {
    static M: OnceLock<(Vec<Traffic>, Vec<Traffic>)> = OnceLock::new();
    M.get_or_init(|| {
        let mut offloaded = Vec::new();
        let mut cache_based = Vec::new();
        for nodes in [1, 4] {
            offloaded.extend([traffic(System::Pulse, nodes), traffic(System::Rpc, nodes)]);
            cache_based.extend([traffic(System::CacheBased, nodes); 2]);
        }
        (offloaded, cache_based)
    })
}

#[test]
fn appendix_c1_bandwidth_utilization() {
    let (offloaded, cache_based) = bandwidth_inputs();
    bandwidth_claim(offloaded, cache_based).unwrap();
}

#[test]
fn appendix_c1_rejects_cache_based_traffic_as_offloaded() {
    let (_, cache_based) = bandwidth_inputs();
    assert_rejects(
        bandwidth_claim(cache_based, &[]),
        "network bytes stay below DRAM bytes",
    );
}
