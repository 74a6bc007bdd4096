//! # pulse-bench
//!
//! The open-loop sweep harness: [`sweep`] runs a load ladder (offered
//! kops → p50/p95/p99 latency + goodput) over any engine behind the shared
//! [`Engine`](pulse::Engine) trait, [`sweep_par_with`] runs many curves on
//! a worker pool with byte-identical results, and [`sweep_json`] writes the
//! `BENCH_sweep.json` document. Two engine factories build every evaluated
//! curve from a caller-configured [`pulse::PulseBuilder`] and an
//! [`AppKind`] deployment: [`rack_factory`] for the pulse rack and
//! [`baseline_factory`] for the RPC and swap-cache baselines over the
//! identical deployment. The sustained-load headline
//! ([`SweepReport::max_load_under_p99`]) only counts rungs whose goodput
//! actually kept up with the offered load. The paper's figure claims are
//! asserted on this path by the root package's `tests/paper_claims.rs`.

#![warn(missing_docs)]

use pulse::{AppSpec, RunCounters, YcsbDriver};
use pulse_core::{Phase, PhaseAttribution, PHASES};
use pulse_ds::{BuildCtx, DsError, TreePlacement};
use pulse_mem::ClusterMemory;
use pulse_mutation::InsertArena;
use pulse_workloads::{
    AppRequest, Application, BtrdbConfig, Distribution, WebServiceConfig, WiredTiger,
    WiredTigerConfig, YcsbWorkload,
};

/// Default extent granularity for end-to-end runs (the scaled analogue of
/// LegoOS's 2 MB allocations).
pub const DEFAULT_GRANULARITY: u64 = 2 << 20;

/// Keys in every sweep WebService deployment (read-only and YCSB alike).
const WEBSERVICE_KEYS: u64 = 6_000;
/// Keys in every sweep WiredTiger deployment (read-only and YCSB-E alike).
const TREE_KEYS: u64 = 30_000;
/// Insert-arena slab per memory node for YCSB-E structural inserts.
const YCSB_ARENA_PER_NODE: u64 = 4 << 20;

/// A workload cell of Fig. 7/8/9 and the extended evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Read-only WebService lookups under a key distribution.
    WebService(Distribution),
    /// WiredTiger under its application's YCSB-E model, which prices an
    /// insert as a locate plus a leaf write without mutating the tree.
    WiredTiger,
    /// BTrDB at a window resolution (seconds).
    Btrdb(u64),
    /// A YCSB mix minted by a [`YcsbDriver`], so reads, seqlock-verified
    /// updates, scans and structural inserts all reach the engine as real
    /// submissions: A/B/C over the Zipfian WebService hash map, E over the
    /// WiredTiger B+Tree with an insert arena.
    Ycsb(YcsbWorkload),
}

impl AppKind {
    /// The deployment this kind names, as a build step for
    /// [`pulse::PulseBuilder::build_with`] or
    /// [`pulse::PulseBuilder::baseline_with`]: one definition, so pulse and
    /// baseline curves run the identical deployment by construction. Trees
    /// are partitioned over the builder's memory nodes.
    ///
    /// # Panics
    ///
    /// The step panics for [`AppKind::Ycsb`], whose stream is minted by a
    /// driver against the engine's memory rather than by an
    /// [`Application`]; [`rack_factory`] and [`baseline_factory`] take it.
    pub fn build(self) -> impl FnOnce(&mut BuildCtx<'_>) -> Result<Box<dyn Application>, DsError> {
        move |ctx| {
            Ok(match self {
                AppKind::WebService(dist) => {
                    Box::new(webservice_cfg(YcsbWorkload::C, dist).build_app(ctx)?)
                }
                AppKind::WiredTiger => Box::new(tree_cfg(ctx).build_app(ctx)?),
                AppKind::Btrdb(window) => Box::new(
                    BtrdbConfig {
                        duration_secs: 900,
                        window_secs: window,
                        placement: TreePlacement::Partitioned {
                            nodes: ctx.mem.node_count(),
                        },
                        ..Default::default()
                    }
                    .build_app(ctx)?,
                ),
                AppKind::Ycsb(w) => {
                    panic!(
                        "YCSB-{w} is minted by a YcsbDriver; use rack_factory or baseline_factory"
                    )
                }
            })
        }
    }

    /// [`AppKind::build`] for every kind: the YCSB mixes come back as their
    /// driver.
    fn deploy(self) -> impl FnOnce(&mut BuildCtx<'_>) -> Result<Stream, DsError> {
        move |ctx| {
            let mutation = pulse::MutationConfig::default();
            Ok(match self {
                AppKind::Ycsb(YcsbWorkload::E) => {
                    let cfg = tree_cfg(ctx);
                    let app = WiredTiger::build(ctx, cfg)?;
                    let arena = InsertArena::build(ctx, YCSB_ARENA_PER_NODE)?;
                    Stream::Ycsb(Box::new(
                        YcsbDriver::wiredtiger(app, cfg, arena, mutation)
                            .expect("valid YCSB-E config"),
                    ))
                }
                AppKind::Ycsb(w) => {
                    let cfg = webservice_cfg(w, Distribution::Zipfian);
                    let app = cfg.build_app(ctx)?;
                    Stream::Ycsb(Box::new(
                        YcsbDriver::webservice(app, cfg, mutation).expect("partitioned deployment"),
                    ))
                }
                kind => Stream::App(kind.build()(ctx)?),
            })
        }
    }
}

/// The sweep WebService deployment at a mix and key distribution.
fn webservice_cfg(workload: YcsbWorkload, distribution: Distribution) -> WebServiceConfig {
    WebServiceConfig {
        keys: WEBSERVICE_KEYS,
        workload,
        distribution,
        ..Default::default()
    }
}

/// The sweep WiredTiger deployment, partitioned over the rack's nodes.
fn tree_cfg(ctx: &BuildCtx<'_>) -> WiredTigerConfig {
    WiredTigerConfig {
        keys: TREE_KEYS,
        placement: TreePlacement::Partitioned {
            nodes: ctx.mem.node_count(),
        },
        ..Default::default()
    }
}

/// What a deployment's build step leaves to mint requests from.
enum Stream {
    /// A self-contained request generator.
    App(Box<dyn Application>),
    /// A YCSB driver, which mints against the engine's memory.
    Ycsb(Box<YcsbDriver>),
}

impl Stream {
    /// Mints `requests` requests against `mem`. A YCSB stream must not
    /// degrade an insert to the non-mutating fallback: an exhausted arena
    /// would keep the curve's update goodput nonzero while the write path
    /// silently stopped mutating the tree — abort loudly instead of
    /// trusting it.
    fn mint(self, mem: &mut ClusterMemory, requests: usize) -> Vec<AppRequest> {
        match self {
            Stream::App(mut app) => (0..requests).map(|_| app.next_request()).collect(),
            Stream::Ycsb(mut driver) => {
                let reqs = (0..requests).map(|_| driver.next_request(mem)).collect();
                assert_eq!(
                    driver.degraded_inserts(),
                    0,
                    "insert arena exhausted mid-stream: raise YCSB_ARENA_PER_NODE \
                     rather than sweeping a curve whose inserts stopped mutating"
                );
                reqs
            }
        }
    }
}

// ------------------------------------------------------- latency-vs-load

/// One rung of a latency-vs-offered-load ladder.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered Poisson arrival rate, kilo-requests per second.
    pub offered_kops: f64,
    /// *Realized* arrival rate over the rung's schedule, kilo-requests per
    /// second. A sampled process deviates from the configured rate by
    /// `O(1/sqrt(n))`; the sustained-load check compares goodput against
    /// this, not the configured rate.
    pub arrived_kops: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests terminated by faults.
    pub faulted: u64,
    /// Median latency (from arrival, queueing included), microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Successful completions, kilo-requests per second.
    pub goodput_kops: f64,
    /// The write half of the goodput: successful *update* completions
    /// (`AppRequest::is_update`), kilo-requests per second. 0 for
    /// read-only curves.
    pub update_goodput_kops: f64,
    /// The rung's retry, cache, fabric, failure and ISA-v2 counters.
    pub counters: RunCounters,
    /// Per-phase latency attribution over the rung's completions. Present
    /// exactly when the rung ran with tracing enabled
    /// ([`pulse::PulseBuilder::trace`]); `None` keeps the default sweep
    /// document byte-identical to the pre-trace schema.
    pub phase: Option<PhasePoint>,
}

/// Microsecond-domain view of a rung's [`PhaseAttribution`] — the sweep
/// JSON's optional `"phase"` object. Means are zero-inclusive over every
/// completion, so they sum to the rung's mean latency (the conservation
/// the CI trace gate checks).
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePoint {
    /// Completions folded into the attribution.
    pub count: u64,
    /// Mean time per phase, microseconds, in [`Phase::ALL`] order.
    pub mean_us: [f64; PHASES],
    /// 99th-percentile time per phase, microseconds, in [`Phase::ALL`]
    /// order.
    pub p99_us: [f64; PHASES],
}

impl PhasePoint {
    /// Converts a run's picosecond-domain attribution to the microsecond
    /// domain the sweep document speaks.
    pub fn from_attribution(a: &PhaseAttribution) -> PhasePoint {
        let mut mean_us = [0.0; PHASES];
        let mut p99_us = [0.0; PHASES];
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            mean_us[i] = a.mean_of(phase).as_micros_f64();
            p99_us[i] = a.p99_of(phase).as_micros_f64();
        }
        PhasePoint {
            count: a.count,
            mean_us,
            p99_us,
        }
    }

    fn to_json(&self) -> String {
        let phases: Vec<String> = Phase::ALL
            .into_iter()
            .enumerate()
            .map(|(i, phase)| {
                format!(
                    "\"{k}_mean_us\":{:.4},\"{k}_p99_us\":{:.4}",
                    self.mean_us[i],
                    self.p99_us[i],
                    k = phase.key()
                )
            })
            .collect();
        format!("{{\"count\":{},{}}}", self.count, phases.join(","))
    }
}

impl SweepPoint {
    /// Collapses one open-loop rung's report into the sweep-document row
    /// (the conversion [`sweep`] applies per rung, public so ad-hoc traced
    /// runs can emit schema-compatible rows too).
    pub fn from_open_loop(rep: &pulse::OpenLoopReport) -> SweepPoint {
        let update_fraction = if rep.completed > 0 {
            rep.completed_updates as f64 / rep.completed as f64
        } else {
            0.0
        };
        SweepPoint {
            offered_kops: rep.offered_per_sec / 1e3,
            arrived_kops: rep.arrival_rate_per_sec() / 1e3,
            completed: rep.completed,
            faulted: rep.faulted,
            p50_us: rep.latency.p50.as_micros_f64(),
            p95_us: rep.latency.p95.as_micros_f64(),
            p99_us: rep.latency.p99.as_micros_f64(),
            goodput_kops: rep.goodput_per_sec / 1e3,
            update_goodput_kops: rep.goodput_per_sec / 1e3 * update_fraction,
            counters: rep.counters,
            phase: rep.phase.as_ref().map(PhasePoint::from_attribution),
        }
    }

    /// The best completion rate this rung could have shown (kops): every
    /// submitted request served over the arrival span plus one p99 drain
    /// tail. Goodput is measured over first-arrival-to-last-completion, so
    /// even a zero-loss rung trails `arrived_kops` by the tail needed to
    /// drain the last arrivals — a finite-run artifact that shrinks with
    /// rung length. Comparing goodput against this bound (instead of the
    /// raw arrival rate) keeps short healthy rungs from being
    /// misclassified as collapsed, while a genuinely collapsed rung — most
    /// of its load shed, survivors fast — still falls far below it.
    pub fn sustainable_kops(&self) -> f64 {
        let submitted = self.completed + self.faulted;
        if submitted < 2 || self.arrived_kops <= 0.0 {
            return self.arrived_kops;
        }
        // arrived_kops is requests per millisecond; spans in ms.
        let arrival_span_ms = (submitted - 1) as f64 / self.arrived_kops;
        let drain_ms = self.p99_us / 1e3;
        submitted as f64 / (arrival_span_ms + drain_ms)
    }

    /// The point's row in the sweep document.
    fn to_json(&self) -> String {
        let mut row = format!(
            "{{\"offered_kops\":{:.3},\"arrived_kops\":{:.3},\
             \"completed\":{},\"faulted\":{},\
             \"p50_us\":{:.3},\"p95_us\":{:.3},\"p99_us\":{:.3},\
             \"goodput_kops\":{:.3},\"update_goodput_kops\":{:.3}",
            self.offered_kops,
            self.arrived_kops,
            self.completed,
            self.faulted,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.goodput_kops,
            self.update_goodput_kops,
        );
        write_counters(&mut row, &self.counters);
        // Optional trailer, absent on untraced rungs so the default
        // document stays byte-identical to the pre-trace schema (CI
        // byte-compares it against the pinned golden).
        if let Some(phase) = &self.phase {
            row.push_str(",\"phase\":");
            row.push_str(&phase.to_json());
        }
        row.push('}');
        row
    }
}

/// Appends a rung's [`RunCounters`] to its sweep row. The ISA-v2 trailer
/// is written only when the rung speculated, batched, or coalesced, which
/// keeps every default curve byte-identical to the pre-ISA-v2 schema (CI
/// byte-compares the default document against the pinned golden).
fn write_counters(row: &mut String, c: &RunCounters) {
    row.push_str(&format!(
        ",\"retries\":{},\"cache_hit_rate\":{:.4},\
         \"link_utilization\":{:.4},\"queue_depth\":{},\
         \"failovers\":{},\"unavailable_completions\":{},\
         \"rereplication_bytes\":{},\"degraded_p99_us\":{:.3}",
        c.retries,
        c.cache_hit_rate,
        c.link_utilization,
        c.queue_depth,
        c.failovers,
        c.unavailable_completions,
        c.rereplication_bytes,
        c.degraded_p99.as_micros_f64(),
    ));
    if c.mis_speculations + c.batched_hops + c.coalesced_prefix_hops > 0 {
        row.push_str(&format!(
            ",\"mis_speculations\":{},\"batched_hops\":{},\
             \"coalesced_prefix_hops\":{}",
            c.mis_speculations, c.batched_hops, c.coalesced_prefix_hops
        ));
    }
}

/// A full ladder for one engine: the latency-vs-load curve the extended
/// evaluation plots.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Engine label ("pulse", "RPC", ...).
    pub label: String,
    /// One point per offered load, in ladder order.
    pub points: Vec<SweepPoint>,
}

/// Fraction of a rung's achievable completion rate
/// ([`SweepPoint::sustainable_kops`]) its goodput must reach for the rung
/// to count as *sustained* (see [`SweepReport::max_load_under_p99`]).
pub const GOODPUT_TOLERANCE: f64 = 0.95;

impl SweepReport {
    /// The highest *achieved* load (goodput, kops) among rungs that
    /// sustained their offered load at the SLO — the "sustained load at an
    /// SLO" headline number.
    ///
    /// A rung qualifies only if its measured p99 stays at or under
    /// `p99_us` **and** its goodput is within [`GOODPUT_TOLERANCE`] of the
    /// best rate the rung's realized arrivals allowed
    /// ([`SweepPoint::sustainable_kops`]: the arrival span plus one p99
    /// drain tail). The second condition is what keeps the number honest:
    /// past saturation a rung can shed most of its load yet still report a
    /// fine p99 over the few requests that completed quickly — counting
    /// such a rung at its full *offered* load (as this method once did)
    /// reports capacity the system never delivered. Disaggregation
    /// evaluations are notorious for exactly this offered-vs-achieved
    /// confusion (Maruf & Chowdhury, arXiv:2305.03943).
    pub fn max_load_under_p99(&self, p99_us: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| {
                p.p99_us <= p99_us && p.goodput_kops >= p.sustainable_kops() * GOODPUT_TOLERANCE
            })
            .map(|p| p.goodput_kops)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Serializes the curve as a JSON object (hand-rolled; the workspace
    /// is offline and carries no serde).
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(SweepPoint::to_json).collect();
        format!(
            "{{\"label\":\"{}\",\"points\":[{}]}}",
            json_escape(&self.label),
            points.join(",")
        )
    }
}

/// Minimal JSON string escaping for labels (backslash, quote, control
/// characters) — the rest of the document is numeric.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Bundles several engines' curves into one `BENCH_sweep.json`-style
/// document.
pub fn sweep_json(reports: &[SweepReport]) -> String {
    let curves: Vec<String> = reports.iter().map(SweepReport::to_json).collect();
    format!("{{\"sweep\":[{}]}}", curves.join(","))
}

/// Runs a load ladder over one engine family: for every offered load in
/// `loads_kops`, `make` builds a *fresh* engine plus its request stream
/// (the [`Engine`](pulse::Engine) measurement contract is one run per
/// instance), and the engine executes the stream open-loop under Poisson
/// arrivals seeded with `seed`. The same seed is reused across rungs, so
/// each rung sees the same arrival pattern compressed to its rate — which
/// keeps the curve monotone in load rather than jittered by resampling —
/// and across engine families, which makes curves directly comparable.
///
/// The curve's `label` comes from the caller, not from the engines: engine
/// labels name the *system* ("pulse", "RPC"), while a sweep document can
/// carry several curves of the same system over different applications.
/// Caller-supplied labels also mean an empty ladder yields a correctly
/// labeled zero-point curve instead of the empty-string report this
/// function once produced.
///
/// # Errors
///
/// [`pulse::Error::Config`] when `label` is empty; request-validation
/// failures propagated from the engine.
pub fn sweep(
    label: &str,
    loads_kops: &[f64],
    seed: u64,
    mut make: impl FnMut() -> (Box<dyn pulse::Engine>, Vec<AppRequest>),
) -> Result<SweepReport, pulse::Error> {
    if label.is_empty() {
        return Err(pulse::Error::Config(
            "a sweep curve needs a non-empty label".into(),
        ));
    }
    let mut points = Vec::new();
    for &kops in loads_kops {
        let (mut engine, requests) = make();
        let arrivals = pulse::ArrivalProcess::poisson(kops * 1e3, seed);
        let rep = engine.execute_open_loop(&requests, arrivals)?;
        points.push(SweepPoint::from_open_loop(&rep));
    }
    Ok(SweepReport {
        label: label.to_string(),
        points,
    })
}

// ----------------------------------------------------- parallel sweep layer

/// The engine-factory shape the parallel harness requires: callable from
/// any worker thread, each call building a fresh deterministic closed
/// world (engine + request stream) for one rung.
pub type CurveFactory = Box<dyn Fn() -> (Box<dyn pulse::Engine>, Vec<AppRequest>) + Send + Sync>;

/// One curve of a parallel sweep: everything [`sweep`] takes, packaged so
/// a worker pool can claim (curve, rung) pairs independently. Each rung is
/// a deterministic closed world — its own cluster/baseline, its own
/// SplitMix64 streams — so rungs race on wall-clock only, never on state.
pub struct CurveSpec {
    /// Curve label in the emitted JSON (same contract as [`sweep`]'s).
    pub label: String,
    /// Offered-load ladder, kilo-requests per second per rung.
    pub loads_kops: Vec<f64>,
    /// Arrival seed, reused across rungs exactly as [`sweep`] does.
    pub seed: u64,
    /// Builds the rung's engine and request stream.
    pub make: CurveFactory,
}

impl CurveSpec {
    /// Packages a curve for [`sweep_par`].
    pub fn new(
        label: &str,
        loads_kops: &[f64],
        seed: u64,
        make: impl Fn() -> (Box<dyn pulse::Engine>, Vec<AppRequest>) + Send + Sync + 'static,
    ) -> CurveSpec {
        CurveSpec {
            label: label.to_string(),
            loads_kops: loads_kops.to_vec(),
            seed,
            make: Box::new(make),
        }
    }
}

impl std::fmt::Debug for CurveSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CurveSpec")
            .field("label", &self.label)
            .field("loads_kops", &self.loads_kops)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Wall-clock and simulated-throughput measurements for one curve of a
/// parallel sweep — the per-curve rows of `BENCH_simspeed.json`.
#[derive(Debug, Clone)]
pub struct CurveTiming {
    /// The curve's label (matches its [`SweepReport`]).
    pub label: String,
    /// Wall-clock per rung, milliseconds, in ladder order.
    pub rung_wall_ms: Vec<f64>,
    /// Total wall-clock spent simulating this curve (sum over rungs —
    /// CPU-time-shaped, independent of how rungs interleaved across
    /// workers), milliseconds.
    pub wall_ms: f64,
    /// Requests the simulator retired across the curve's rungs
    /// (completed + faulted): the work metric behind simulated-ops/sec.
    pub sim_ops: u64,
}

impl CurveTiming {
    /// Simulated requests retired per wall-clock second on this curve.
    pub fn sim_ops_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.sim_ops as f64 / (self.wall_ms / 1e3)
    }
}

/// Everything a parallel sweep produces: the stitched curves (byte-identical
/// to running [`sweep`] serially, in spec order) plus the perf trajectory.
#[derive(Debug)]
pub struct ParSweepReport {
    /// One report per [`CurveSpec`], in spec order, each ladder in order —
    /// [`sweep_json`] over these matches the serial run byte for byte.
    pub curves: Vec<SweepReport>,
    /// Per-curve wall-clock/throughput measurements, in spec order.
    pub timings: Vec<CurveTiming>,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// End-to-end wall-clock of the whole sweep, milliseconds.
    pub total_wall_ms: f64,
}

/// Runs a set of curves on a bounded `std::thread::scope` worker pool and
/// stitches the results back in spec/ladder order.
///
/// Work items are (curve, rung) pairs: each worker claims the next item
/// off a shared counter, builds that rung's engine *inside the worker*
/// (engines are neither `Send` nor shared — each is created, driven and
/// dropped on one thread), runs it, and deposits the [`SweepPoint`] into
/// the rung's slot. Rungs already run under fixed seeds against private
/// state, so the schedule cannot affect results — only wall-clock — and
/// the stitched [`ParSweepReport::curves`] is byte-identical (via
/// [`sweep_json`]) to a serial [`sweep`] loop for any worker count, which
/// `tests/parallel_sweep.rs` and CI assert.
///
/// `on_curve` fires from a worker as each *curve* retires its last rung
/// (curves can finish out of spec order), so long ladders can stream
/// progress to CI logs while the pool keeps running.
///
/// # Errors
///
/// [`pulse::Error::Config`] for an empty label (checked up front, before
/// any thread spawns); the first engine error in spec/ladder order
/// otherwise.
///
/// # Panics
///
/// Panics if `workers == 0`, and propagates worker-thread panics.
pub fn sweep_par_with(
    specs: &[CurveSpec],
    workers: usize,
    on_curve: impl Fn(&CurveTiming) + Send + Sync,
) -> Result<ParSweepReport, pulse::Error> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    assert!(workers > 0, "a worker pool needs at least one thread");
    for spec in specs {
        if spec.label.is_empty() {
            return Err(pulse::Error::Config(
                "a sweep curve needs a non-empty label".into(),
            ));
        }
    }
    let t0 = Instant::now();
    // Flattened (curve, rung) work items, claimed off one shared counter.
    let items: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(c, s)| (0..s.loads_kops.len()).map(move |r| (c, r)))
        .collect();
    type Slot = Mutex<Option<Result<(SweepPoint, f64), pulse::Error>>>;
    let slots: Vec<Vec<Slot>> = specs
        .iter()
        .map(|s| (0..s.loads_kops.len()).map(|_| Mutex::new(None)).collect())
        .collect();
    // Rungs still outstanding per curve: the worker that retires a curve's
    // last rung reports it through `on_curve`.
    let remaining: Vec<AtomicUsize> = specs
        .iter()
        .map(|s| AtomicUsize::new(s.loads_kops.len().max(1)))
        .collect();
    let next = AtomicUsize::new(0);

    let curve_timing = |c: usize| -> CurveTiming {
        let rung_wall_ms: Vec<f64> = slots[c]
            .iter()
            .map(|slot| match slot.lock().expect("slot").as_ref() {
                Some(Ok((_, ms))) => *ms,
                _ => 0.0,
            })
            .collect();
        let sim_ops: u64 = slots[c]
            .iter()
            .map(|slot| match slot.lock().expect("slot").as_ref() {
                Some(Ok((p, _))) => p.completed + p.faulted,
                _ => 0,
            })
            .sum();
        CurveTiming {
            label: specs[c].label.clone(),
            wall_ms: rung_wall_ms.iter().sum(),
            rung_wall_ms,
            sim_ops,
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(c, r)) = items.get(i) else { break };
                let spec = &specs[c];
                let rung_t0 = Instant::now();
                let (mut engine, requests) = (spec.make)();
                let arrivals = pulse::ArrivalProcess::poisson(spec.loads_kops[r] * 1e3, spec.seed);
                let result = engine
                    .execute_open_loop(&requests, arrivals)
                    .map(|rep| SweepPoint::from_open_loop(&rep));
                drop(engine);
                let wall_ms = rung_t0.elapsed().as_secs_f64() * 1e3;
                *slots[c][r].lock().expect("slot") = Some(result.map(|p| (p, wall_ms)));
                if remaining[c].fetch_sub(1, Ordering::AcqRel) == 1 {
                    on_curve(&curve_timing(c));
                }
            });
        }
    });

    // Zero-rung curves never enter the pool; report them here so progress
    // covers every spec exactly once.
    for (c, spec) in specs.iter().enumerate() {
        if spec.loads_kops.is_empty() {
            on_curve(&curve_timing(c));
        }
    }

    // Stitch in spec/ladder order; surface the first error in that order
    // (matching what a serial loop would have hit first).
    let mut curves = Vec::with_capacity(specs.len());
    let mut timings = Vec::with_capacity(specs.len());
    for (c, spec) in specs.iter().enumerate() {
        // Timing first: draining the slots below empties what it reads.
        timings.push(curve_timing(c));
        let mut points = Vec::with_capacity(spec.loads_kops.len());
        for slot in &slots[c] {
            let entry = slot.lock().expect("slot").take().expect("all rungs ran");
            points.push(entry?.0);
        }
        curves.push(SweepReport {
            label: spec.label.clone(),
            points,
        });
    }
    Ok(ParSweepReport {
        curves,
        timings,
        workers,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// [`sweep_par_with`] without a progress callback.
///
/// # Errors
///
/// As [`sweep_par_with`].
pub fn sweep_par(specs: &[CurveSpec], workers: usize) -> Result<ParSweepReport, pulse::Error> {
    sweep_par_with(specs, workers, |_| {})
}

/// Serializes a parallel sweep's perf measurements as the
/// `BENCH_simspeed.json` document: simulator throughput (simulated-ops/sec
/// per curve), wall-clock per rung, and the sweep's total wall-clock, so
/// raw simulator speed is a tracked trajectory alongside `BENCH_sweep.json`.
/// Wall-clock numbers are machine-dependent by nature; the *schema* is
/// what CI pins.
pub fn simspeed_json(report: &ParSweepReport) -> String {
    let curves: Vec<String> = report
        .timings
        .iter()
        .zip(&report.curves)
        .map(|(t, c)| {
            let rungs: Vec<String> = t
                .rung_wall_ms
                .iter()
                .zip(&c.points)
                .map(|(ms, p)| {
                    format!(
                        "{{\"offered_kops\":{:.3},\"wall_ms\":{:.3}}}",
                        p.offered_kops, ms
                    )
                })
                .collect();
            format!(
                "{{\"label\":\"{}\",\"sim_ops\":{},\"sim_ops_per_sec\":{:.1},\
                 \"wall_ms\":{:.3},\"rungs\":[{}]}}",
                json_escape(&t.label),
                t.sim_ops,
                t.sim_ops_per_sec(),
                t.wall_ms,
                rungs.join(",")
            )
        })
        .collect();
    format!(
        "{{\"workers\":{},\"total_wall_ms\":{:.3},\"curves\":[{}]}}",
        report.workers,
        report.total_wall_ms,
        curves.join(",")
    )
}
// ------------------------------------------------------- engine factories

/// The pulse rack `builder` configures, over the `app` deployment, with
/// `requests` requests per rung — the engine factory for [`sweep`] and
/// [`CurveSpec`]. Each call rebuilds the identical deployment and request
/// stream, so every rung is a fresh closed world. The builder carries the
/// whole rack: nodes, CPUs, dispatch, cache, topology, replication,
/// faults, tracing and the ISA-v2 switches.
///
/// # Panics
///
/// The factory panics if the rack fails to wire, or if a YCSB-E stream
/// exhausts its insert arena.
pub fn rack_factory(
    builder: pulse::PulseBuilder,
    app: AppKind,
    requests: usize,
) -> impl Fn() -> (Box<dyn pulse::Engine>, Vec<AppRequest>) + Send + Sync {
    move || {
        let (mut runtime, stream) = builder
            .clone()
            .build_with(app.deploy())
            .expect("wire pulse rack");
        let reqs = stream.mint(runtime.memory_mut(), requests);
        (Box::new(runtime) as Box<dyn pulse::Engine>, reqs)
    }
}

/// The `kind` baseline over the identical `app` deployment
/// [`rack_factory`] builds, behind the same [`Engine`](pulse::Engine)
/// trait. From `builder` a baseline takes the memory wiring (nodes,
/// replication, granularity) and its client count (`window`); dispatch,
/// cache, topology and faults ride in the baseline's own config.
///
/// # Panics
///
/// As [`rack_factory`].
pub fn baseline_factory(
    builder: pulse::PulseBuilder,
    kind: pulse::BaselineKind,
    app: AppKind,
    requests: usize,
) -> impl Fn() -> (Box<dyn pulse::Engine>, Vec<AppRequest>) + Send + Sync {
    move || {
        let (mut engine, stream) = builder
            .clone()
            .baseline_with(kind.clone(), app.deploy())
            .expect("wire baseline");
        let reqs = stream.mint(engine.memory_mut(), requests);
        (Box::new(engine) as Box<dyn pulse::Engine>, reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse::baselines::RpcConfig;
    use pulse::sim::SimTime;
    use pulse::{BaselineKind, CacheConfig, FaultEvent, FaultKind, PulseBuilder};

    fn point(offered: f64, goodput: f64, p99_us: f64) -> SweepPoint {
        SweepPoint {
            offered_kops: offered,
            arrived_kops: offered,
            completed: 100,
            faulted: 0,
            p50_us: p99_us / 2.0,
            p95_us: p99_us * 0.9,
            p99_us,
            goodput_kops: goodput,
            update_goodput_kops: 0.0,
            counters: RunCounters::default(),
            phase: None,
        }
    }

    /// A pulse rack of `nodes` memory and `cpus` CPU nodes.
    fn rack(nodes: usize, cpus: usize) -> PulseBuilder {
        PulseBuilder::new()
            .nodes(nodes)
            .cpus(cpus)
            .granularity(DEFAULT_GRANULARITY)
    }

    /// Baseline wiring: `nodes` memory nodes, `clients` closed-loop clients.
    fn clients(nodes: usize, clients: usize) -> PulseBuilder {
        PulseBuilder::new()
            .nodes(nodes)
            .window(clients)
            .granularity(DEFAULT_GRANULARITY)
    }

    /// One rung at `kops` of the curve `make` builds.
    fn rung(make: impl Fn() -> (Box<dyn pulse::Engine>, Vec<AppRequest>), kops: f64) -> SweepPoint {
        let curve = sweep("probe", &[kops], 7, make).unwrap();
        curve.points[0].clone()
    }

    /// Regression for the lying SLO headline: a post-saturation rung whose
    /// goodput collapsed — but whose few completed requests met the p99
    /// SLO — must not count as "sustained" at its full offered load.
    #[test]
    fn max_load_ignores_collapsed_rungs() {
        let report = SweepReport {
            label: "synthetic".into(),
            points: vec![
                point(100.0, 99.0, 80.0),   // healthy: goodput ~= offered
                point(400.0, 390.0, 140.0), // healthy, higher load
                point(800.0, 120.0, 60.0),  // collapsed: 85% of load shed,
                                            // survivors fast => p99 "fine"
            ],
        };
        let sustained = report.max_load_under_p99(150.0).expect("healthy rungs");
        assert!(
            (sustained - 390.0).abs() < 1e-9,
            "must report the achieved goodput of the best honest rung, got {sustained}"
        );
        // Tighter SLO drops the 400-kops rung; the collapsed one still
        // must not resurface even though its p99 is lowest of all.
        let tight = report.max_load_under_p99(100.0).expect("first rung");
        assert!((tight - 99.0).abs() < 1e-9, "got {tight}");
        // No rung qualifies below every p99.
        assert_eq!(report.max_load_under_p99(10.0), None);
    }

    #[test]
    fn sweep_keeps_label_on_empty_ladder() {
        let curve = sweep("pulse", &[], 42, || unreachable!("no rungs")).unwrap();
        assert_eq!(curve.label, "pulse");
        assert!(curve.points.is_empty());
        assert_eq!(curve.max_load_under_p99(100.0), None);
        // A zero-point curve still serializes as valid JSON.
        assert_eq!(curve.to_json(), "{\"label\":\"pulse\",\"points\":[]}");
        let doc = sweep_json(&[curve]);
        assert_eq!(doc, "{\"sweep\":[{\"label\":\"pulse\",\"points\":[]}]}");
        assert_eq!(sweep_json(&[]), "{\"sweep\":[]}");
    }

    #[test]
    fn sweep_rejects_empty_label() {
        let err = sweep("", &[], 42, || unreachable!("rejected first")).unwrap_err();
        assert!(matches!(err, pulse::Error::Config(_)), "{err:?}");
    }

    #[test]
    fn labels_are_json_escaped() {
        let curve = SweepReport {
            label: "8\"-node \\ tab\t".into(),
            points: Vec::new(),
        };
        assert_eq!(
            curve.to_json(),
            "{\"label\":\"8\\\"-node \\\\ tab\\u0009\",\"points\":[]}"
        );
    }

    /// A healthy short rung — zero loss, p99 well under the SLO — must
    /// qualify even though its goodput trails the arrival rate by the
    /// finite-run drain tail (the over-strict rejection the first version
    /// of the fix introduced).
    #[test]
    fn max_load_keeps_healthy_short_rungs() {
        // 300 requests at 732 kops realized: arrival span 408 us, p99
        // 42 us => goodput over the full span is ~93.5% of the arrival
        // rate despite nothing being shed.
        let mut p = point(800.0, 684.5, 42.2);
        p.arrived_kops = 732.3;
        p.completed = 300;
        let report = SweepReport {
            label: "synthetic".into(),
            points: vec![p],
        };
        let sustained = report.max_load_under_p99(150.0);
        assert_eq!(sustained, Some(684.5), "healthy rung must qualify");
    }

    /// The YCSB mixes execute a rung end-to-end through both factories:
    /// real updates in the stream, nonzero update goodput, and the
    /// identical shape from the baseline side.
    #[test]
    fn ycsb_factories_execute_a_rung() {
        for w in [YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::E] {
            let p = rung(rack_factory(rack(2, 2), AppKind::Ycsb(w), 60), 100.0);
            assert_eq!(p.completed + p.faulted, 60, "{w}");
            assert!(p.goodput_kops > 0.0, "{w}");
            if w == YcsbWorkload::A {
                assert!(p.update_goodput_kops > 0.0, "A is half updates");
            }
        }
        let rpc = BaselineKind::Rpc(RpcConfig::rpc());
        let ycsb_a = AppKind::Ycsb(YcsbWorkload::A);
        let p = rung(baseline_factory(clients(2, 8), rpc, ycsb_a, 60), 100.0);
        assert_eq!(p.completed, 60);
        assert!(p.update_goodput_kops > 0.0);
        assert_eq!(p.counters.retries, 0, "sequential replay never races");
    }

    /// The emitter, byte for byte: every key, its order and its number
    /// format, on a fully populated point (ISA-v2 trailer and phase object
    /// present) and on a default one (both absent). CI's python gates and
    /// `ci/check_trace.py` read these keys; the golden ladder pins the
    /// default form.
    #[test]
    fn sweep_json_is_byte_exact() {
        let full = SweepPoint {
            offered_kops: 400.125,
            arrived_kops: 398.5,
            completed: 2_000,
            faulted: 3,
            p50_us: 12.5,
            p95_us: 80.25,
            p99_us: 141.875,
            goodput_kops: 390.75,
            update_goodput_kops: 97.5,
            counters: RunCounters {
                retries: 17,
                cache_hit_rate: 0.7344,
                link_utilization: 0.4125,
                queue_depth: 9,
                failovers: 11,
                unavailable_completions: 2,
                rereplication_bytes: 1 << 21,
                degraded_p99: SimTime::from_nanos(310_125),
                mis_speculations: 23,
                batched_hops: 4_096,
                coalesced_prefix_hops: 57,
            },
            phase: Some(PhasePoint {
                count: 2_000,
                mean_us: std::array::from_fn(|i| i as f64 * 1.5),
                p99_us: std::array::from_fn(|i| i as f64 * 2.25),
            }),
        };
        let curve = SweepReport {
            label: "pulse+cache \"8-node\"".into(),
            points: vec![full, point(100.0, 99.0, 80.0)],
        };
        let expected = concat!(
            r#"{"sweep":[{"label":"pulse+cache \"8-node\"","points":["#,
            r#"{"offered_kops":400.125,"arrived_kops":398.500,"#,
            r#""completed":2000,"faulted":3,"#,
            r#""p50_us":12.500,"p95_us":80.250,"p99_us":141.875,"#,
            r#""goodput_kops":390.750,"update_goodput_kops":97.500,"#,
            r#""retries":17,"cache_hit_rate":0.7344,"#,
            r#""link_utilization":0.4125,"queue_depth":9,"#,
            r#""failovers":11,"unavailable_completions":2,"#,
            r#""rereplication_bytes":2097152,"degraded_p99_us":310.125,"#,
            r#""mis_speculations":23,"batched_hops":4096,"coalesced_prefix_hops":57,"#,
            r#""phase":{"count":2000,"#,
            r#""queued_mean_us":0.0000,"queued_p99_us":0.0000,"#,
            r#""dispatch_mean_us":1.5000,"dispatch_p99_us":2.2500,"#,
            r#""wire_mean_us":3.0000,"wire_p99_us":4.5000,"#,
            r#""accel_mean_us":4.5000,"accel_p99_us":6.7500,"#,
            r#""mem_mean_us":6.0000,"mem_p99_us":9.0000,"#,
            r#""cache_hit_mean_us":7.5000,"cache_hit_p99_us":11.2500,"#,
            r#""retry_mean_us":9.0000,"retry_p99_us":13.5000,"#,
            r#""failover_mean_us":10.5000,"failover_p99_us":15.7500,"#,
            r#""rereplication_mean_us":12.0000,"rereplication_p99_us":18.0000,"#,
            r#""spec_squash_mean_us":13.5000,"spec_squash_p99_us":20.2500}},"#,
            r#"{"offered_kops":100.000,"arrived_kops":100.000,"#,
            r#""completed":100,"faulted":0,"#,
            r#""p50_us":40.000,"p95_us":72.000,"p99_us":80.000,"#,
            r#""goodput_kops":99.000,"update_goodput_kops":0.000,"#,
            r#""retries":0,"cache_hit_rate":0.0000,"#,
            r#""link_utilization":0.0000,"queue_depth":0,"#,
            r#""failovers":0,"unavailable_completions":0,"#,
            r#""rereplication_bytes":0,"degraded_p99_us":0.000}]}]}"#,
        );
        assert_eq!(sweep_json(&[curve]), expected);
    }

    /// The cache-sensitivity curves execute a rung end-to-end: the skewed
    /// pulse+cache rung reports a nonzero hit rate, the identical
    /// cache-disabled rung reports exactly zero, and the RPC+cache side
    /// wires up through `RpcConfig::cache`.
    #[test]
    fn cached_factories_report_hit_rates() {
        let cache = CacheConfig::sized(4 << 20);
        let skewed = AppKind::WebService(Distribution::Zipfian);
        let run = |cache| rung(rack_factory(rack(2, 2).cache(cache), skewed, 120), 100.0);
        let hit = run(cache);
        assert_eq!(hit.completed, 120);
        assert!(
            hit.counters.cache_hit_rate > 0.0,
            "skewed reads must hit: {hit:?}"
        );
        let disabled = run(CacheConfig::disabled());
        assert_eq!(
            disabled.counters.cache_hit_rate, 0.0,
            "disabled is exactly zero"
        );

        let rpc = BaselineKind::Rpc(RpcConfig {
            cache,
            ..RpcConfig::rpc()
        });
        let p = rung(baseline_factory(clients(2, 8), rpc, skewed, 120), 100.0);
        assert!(
            p.counters.cache_hit_rate > 0.0,
            "RPC front-end cache must hit on skewed reads: {p:?}"
        );
    }

    /// One rung of each crash curve tells the SLO-under-failure story:
    /// replicated pulse rides out the crash (zero unavailable, nonzero
    /// failovers and rebuild traffic), unreplicated pulse loses requests,
    /// and the replicated RPC baseline fails over without ever rebuilding.
    #[test]
    fn crash_factories_tell_the_slo_story() {
        let faults = vec![FaultEvent::new(
            SimTime::from_micros(30),
            FaultKind::MemCrash(0),
        )];
        let webservice = AppKind::WebService(Distribution::Zipfian);
        let pulse = |replication| {
            let builder = rack(4, 2).replication(replication).faults(faults.clone());
            rung(rack_factory(builder, webservice, 120), 300.0).counters
        };
        let replicated = pulse(2);
        assert_eq!(replicated.unavailable_completions, 0, "{replicated:?}");
        assert!(replicated.failovers > 0, "{replicated:?}");
        assert!(replicated.rereplication_bytes > 0, "{replicated:?}");
        assert!(replicated.degraded_p99 > SimTime::ZERO, "{replicated:?}");
        let bare = pulse(1);
        assert!(bare.unavailable_completions > 0, "{bare:?}");
        assert_eq!(bare.rereplication_bytes, 0, "{bare:?}");

        let rpc = BaselineKind::Rpc(RpcConfig {
            faults,
            ..RpcConfig::rpc()
        });
        let builder = clients(4, 8).replication(2);
        let rpc = rung(baseline_factory(builder, rpc, webservice, 120), 300.0).counters;
        assert_eq!(rpc.unavailable_completions, 0, "{rpc:?}");
        assert!(rpc.failovers > 0, "{rpc:?}");
        assert_eq!(rpc.rereplication_bytes, 0, "RPC never rebuilds: {rpc:?}");
    }

    /// Both factories build and execute a rung end-to-end for every
    /// application family (tiny sizes; this is a wiring test, the real
    /// ladders run in `examples/latency_sweep.rs`).
    #[test]
    fn app_factories_execute_a_rung() {
        for kind in [
            AppKind::WebService(Distribution::Zipfian),
            AppKind::WiredTiger,
            AppKind::Btrdb(4),
        ] {
            let rpc = BaselineKind::Rpc(RpcConfig::rpc());
            for p in [
                rung(rack_factory(rack(2, 2), kind, 10), 50.0),
                rung(baseline_factory(clients(2, 4), rpc, kind, 10), 50.0),
            ] {
                assert_eq!(p.completed + p.faulted, 10, "{kind:?}");
                assert!(p.goodput_kops > 0.0, "{kind:?}");
            }
        }
    }
}
