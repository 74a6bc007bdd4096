//! The compared systems (§6): Fastswap-style cache-based paging, RPC on
//! server-class CPUs, RPC on wimpy ARM SmartNIC cores, and AIFM-style
//! Cache+RPC.
//!
//! Every baseline executes the *same* [`AppRequest`] streams as pulse,
//! functionally (results are bit-identical) and then prices them through
//! its own timing model. Requests run closed-loop with a fixed number of
//! outstanding clients, sharing contended resources (CPU threads / RPC
//! workers, the CPU-node link, per-node DRAM channels, the swap pipe).

use pulse_frontend::replay::{drive, measured_rate};
use pulse_frontend::{CacheConfig, CpuFrontEnd, LruSet};
use pulse_mem::{ClusterMemory, FaultEvent, FaultKind, NodeId};
use pulse_net::{Endpoint, Fabric, FabricConfig, LinkConfig, SwitchConfig, TopologySpec};
use pulse_sim::{
    DispatchConfig, LatencyHistogram, LatencySummary, SerialResource, ServerPool, SimTime,
};
use pulse_trace::{LatencyBreakdown, Phase, PhaseAttribution};
use pulse_workloads::{execute_functional, Access, AppRequest};

/// Network constants shared with the pulse cluster: one endpoint→endpoint
/// hop through the switch.
///
/// The satellite audit for flat magic-number costs found three in the RPC
/// path (a hard-coded 256 B per cross-node bounce and 128 B request /
/// response-base frames); they are parametrized here with defaults that
/// reproduce the old charges bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// One-way latency (two link propagations + the switch pipeline).
    pub one_way: SimTime,
    /// Link bandwidth, bits per second.
    pub bits_per_sec: u64,
    /// Request frame size, bytes (header + pointer + parameters).
    pub request_bytes: u64,
    /// Response header/base size, bytes (before payload and cache fills).
    pub response_base_bytes: u64,
    /// Per-direction frame size of one cross-node bounce, bytes. The flat
    /// model's `256` per bounce was both directions of this.
    pub bounce_bytes: u64,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel {
            one_way: SimTime::from_micros(3) + SimTime::from_nanos(600),
            bits_per_sec: 100_000_000_000,
            request_bytes: 128,
            response_base_bytes: 128,
            bounce_bytes: 128,
        }
    }
}

impl NetModel {
    /// Derives the routed fabric's per-hop constants from these end-to-end
    /// ones: `one_way` decomposes into two link propagations around the
    /// switch pipeline, so a single-switch routed path prices the same
    /// crossing the flat constants do.
    fn fabric_config(&self) -> FabricConfig {
        let switch = SwitchConfig {
            port_bits_per_sec: self.bits_per_sec,
            ..SwitchConfig::default()
        };
        let propagation = self.one_way.saturating_sub(switch.pipeline_latency) / 2;
        FabricConfig {
            link: LinkConfig {
                propagation,
                bits_per_sec: self.bits_per_sec,
                per_message_overhead_bytes: 0,
            },
            switch,
        }
    }

    /// Builds the routed fabric for `spec` over one CPU node and `nodes`
    /// memory nodes, or `None` on the flat default.
    fn build_fabric(&self, spec: TopologySpec, nodes: usize) -> Option<Fabric> {
        spec.is_routed()
            .then(|| Fabric::new(spec.build(1, nodes), self.fabric_config()))
    }
}

/// A CPU's execution parameters for traversal replay.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Per-instruction time for traversal logic.
    pub insn_time: SimTime,
    /// Local DRAM access latency (dependent pointer chase step).
    pub dram_latency: SimTime,
}

impl CpuModel {
    /// Xeon Gold 6240-class core.
    pub fn xeon() -> CpuModel {
        CpuModel {
            insn_time: SimTime::from_picos(444),
            dram_latency: SimTime::from_nanos(90),
        }
    }

    /// Bluefield-2 Cortex-A72-class core: slower issue, slower memory path.
    pub fn arm_cortex_a72() -> CpuModel {
        CpuModel {
            insn_time: SimTime::from_picos(1_550),
            dram_latency: SimTime::from_nanos(150),
        }
    }
}

/// What a baseline run measured.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// System label ("Cache-based", "RPC", ...).
    pub label: &'static str,
    /// Requests completed.
    pub completed: u64,
    /// Latency distribution.
    pub latency: LatencySummary,
    /// Requests per simulated second.
    pub throughput: f64,
    /// Total time attributed to pointer traversal (Fig. 2(a)'s numerator).
    pub traversal_time: SimTime,
    /// Total request-resident time (Fig. 2(a)'s denominator).
    pub total_time: SimTime,
    /// Bytes moved over the CPU-node link.
    pub net_bytes: u64,
    /// Bytes touched in disaggregated memory.
    pub mem_bytes: u64,
    /// Cache hit ratio (page or object cache), if the system has one.
    pub cache_hit_ratio: Option<f64>,
    /// Front-end traversal-cell cache hit rate (the shared
    /// `pulse_frontend::TraversalCache`, when configured): locally-served
    /// dependent hops over all probes. 0.0 when disabled — distinct from
    /// [`BaselineReport::cache_hit_ratio`], which reports the system's own
    /// page/object cache.
    pub cache_hit_rate: f64,
    /// Peak demand over the fabric links into the CPU node — the
    /// downlinks RPC bouncing congests under incast. Normalized over the
    /// offered-load window in open loop (so a system that falls behind
    /// still shows the pressure the offered rate puts on its downlink; it
    /// can exceed 1.0 when oversubscribed) and over the makespan in
    /// closed loop (a plain duty cycle). Exactly 0.0 on the flat default
    /// (no fabric is built).
    pub link_utilization: f64,
    /// Deepest any fabric link's egress FIFO ever got. 0 on flat.
    pub queue_depth: u64,
    /// Requests (or request segments) redirected onto a surviving replica
    /// after their primary node went dark mid-run. Always 0 for the swap
    /// cache (it has no fault model) and with an empty fault schedule.
    pub failovers: u64,
    /// Requests that fault-completed because every replica of some extent
    /// they needed was unreachable at service time. These are *excluded*
    /// from [`BaselineReport::completed`].
    pub unavailable_completions: u64,
    /// p99 over only the completions that finished inside the degraded
    /// window (first fault to last repair; open-ended when nothing heals).
    /// `SimTime::ZERO` without faults.
    pub degraded_p99: SimTime,
    /// Per-phase latency attribution over all requests, present exactly
    /// when the config asked for tracing (`trace: true`). The replay
    /// models are analytic, so phases are attributed from the priced
    /// components: residual (queueing on threads/workers/pipes) lands in
    /// [`Phase::Queued`] and the per-phase sums still equal each request's
    /// end-to-end latency exactly.
    pub phase: Option<PhaseAttribution>,
    /// End of the last request.
    pub makespan: SimTime,
}

/// The horizon fabric demand is normalized over: the offered-load window
/// in open loop (what the offered rate asks of the link, however far the
/// system falls behind it), the makespan in closed loop (duty cycle).
fn demand_horizon(arrivals: Option<&[SimTime]>, makespan: SimTime) -> SimTime {
    match arrivals {
        Some(times) if times.len() > 1 => {
            let window = *times.last().expect("non-empty") - times[0];
            window.max(SimTime::from_nanos(1))
        }
        _ => makespan,
    }
}

/// Whether `node` is unreachable at `t` under a time-sorted fault
/// schedule. The replay baselines have no accelerators, so an
/// [`FaultKind::AccelWedge`] never makes a node unreachable to RPC.
fn node_down_at(faults: &[FaultEvent], node: NodeId, t: SimTime) -> bool {
    let mut down = false;
    for f in faults {
        if f.at > t {
            break;
        }
        match f.kind {
            FaultKind::MemCrash(n) | FaultKind::LinkPartition(n) if n == node => down = true,
            FaultKind::MemRecover(n) | FaultKind::LinkHeal(n) if n == node => down = false,
            _ => {}
        }
    }
    down
}

/// The degraded window a fault schedule opens: first fault to last repair,
/// open-ended when nothing ever heals. `None` without faults.
fn degraded_window(faults: &[FaultEvent]) -> Option<(SimTime, SimTime)> {
    let first = faults.iter().map(|f| f.at).min()?;
    let last_repair = faults
        .iter()
        .filter(|f| f.kind.is_repair())
        .map(|f| f.at)
        .max()
        .unwrap_or(SimTime::from_picos(u64::MAX));
    Some((first, last_repair))
}

impl BaselineReport {
    /// Fraction of execution time spent in pointer traversals (Fig. 2(a)).
    pub fn traversal_fraction(&self) -> f64 {
        if self.total_time == SimTime::ZERO {
            return 0.0;
        }
        self.traversal_time.as_picos() as f64 / self.total_time.as_picos() as f64
    }
}

// The FIFO multi-server admission loops (closed_loop / open_loop / drive)
// and the measured-rate helper used to live here, duplicated conceptually
// per baseline; they are now part of the shared CPU-node front-end layer
// (`pulse_frontend::replay`).

// ------------------------------------------------------------- Cache-based

/// Fastswap-style swap cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct SwapConfig {
    /// CPU-node DRAM used as page cache, bytes (2 GB in §6, scaled).
    pub cache_bytes: u64,
    /// Page size (4 KiB).
    pub page_bytes: u64,
    /// Kernel fault-handling software cost per major fault.
    pub fault_software: SimTime,
    /// Swap-subsystem per-page service (reclaim + I/O issue) — the
    /// "could not evict pages fast enough" ceiling of §6.1.
    pub swap_service: SimTime,
    /// Application threads at the CPU node.
    pub threads: usize,
    /// CPU model.
    pub cpu: CpuModel,
    /// Network constants.
    pub net: NetModel,
    /// CPU-node request-dispatch engine (the same contended-issue model the
    /// pulse rack runs, so pulse-vs-baseline sweeps stay apples-to-apples).
    /// Each request books one dispatch op at admission; the default is
    /// uncontended.
    pub dispatch: DispatchConfig,
    /// Rack geometry. On the flat default every page fill is priced with
    /// the end-to-end `net` constants; on a routed spec each fill is a
    /// request + page transfer over the fabric's finite links from the
    /// owning node.
    pub topology: TopologySpec,
    /// Record per-phase latency attribution
    /// ([`BaselineReport::phase`]). Off by default; the run's timing is
    /// identical either way.
    pub trace: bool,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            cache_bytes: 64 << 20,
            page_bytes: 4096,
            fault_software: SimTime::from_micros(5),
            swap_service: SimTime::from_micros(4),
            threads: 16,
            cpu: CpuModel::xeon(),
            net: NetModel::default(),
            dispatch: DispatchConfig::default(),
            topology: TopologySpec::Flat,
            trace: false,
        }
    }
}

/// Runs the cache-based (swap) system over a request stream.
///
/// Every memory access in every request probes a 4 KiB-page LRU; misses pay
/// fault software + a network round trip + page transfer, serialized
/// through the swap pipe.
pub fn run_swap_cache(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: SwapConfig,
) -> BaselineReport {
    swap_cache_impl(mem, requests, concurrency, cfg, None)
}

/// Open-loop variant of [`run_swap_cache`]: request `i` arrives at
/// `arrivals[i]` (sorted ascending) and its latency is measured from that
/// arrival, queueing included. The report's throughput is goodput over the
/// arrival-to-last-completion span.
pub fn run_swap_cache_open_loop(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: SwapConfig,
    arrivals: &[SimTime],
) -> BaselineReport {
    swap_cache_impl(mem, requests, concurrency, cfg, Some(arrivals))
}

fn swap_cache_impl(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: SwapConfig,
    arrivals: Option<&[SimTime]>,
) -> BaselineReport {
    let mut lru = LruSet::new((cfg.cache_bytes / cfg.page_bytes).max(1) as usize);
    let mut swap_pipe = SerialResource::new(u64::MAX); // fixed service per page
    let mut threads = ServerPool::new(cfg.threads);
    // The shared CPU-node front end hosts the admission dispatch engine
    // (the swap system's own page cache stands in for a traversal cache).
    let mut fe = CpuFrontEnd::new(LinkConfig::default(), cfg.dispatch, CacheConfig::disabled());
    let mut fabric = cfg.net.build_fabric(cfg.topology, mem.node_count());
    let routed = fabric.is_some();
    let mut net_bytes = 0u64;
    let mut mem_bytes = 0u64;
    let page_wire = SimTime::serialization(cfg.page_bytes, cfg.net.bits_per_sec);
    let miss_cost = cfg.fault_software + cfg.net.one_way * 2 + page_wire;
    let mut breakdown = cfg.trace.then(LatencyBreakdown::new);

    // Pre-execute functionally (results + traces).
    let traces: Vec<(Vec<Access>, SimTime)> = requests
        .iter()
        .map(|r| {
            let run = execute_functional(mem, r, 1 << 20).expect("functional run");
            (run.accesses, r.cpu_work)
        })
        .collect();

    // All contended resources are booked at the request's admission time so
    // bookings stay time-ordered across the closed loop (see module docs);
    // completion is the max over the uncontended path and each contended
    // resource's grant plus its downstream path.
    let (latency, makespan, traversal_total, latency_total) =
        drive(requests.len(), concurrency, arrivals, |idx, ready| {
            let (accesses, cpu_work) = &traces[idx];
            let mut pure = SimTime::ZERO;
            let mut traversal_pure = SimTime::ZERO;
            let mut misses = 0u64;
            let mut hits = 0u64;
            let mut insn_total = SimTime::ZERO;
            let mut fills: Vec<usize> = Vec::new();
            for a in accesses {
                let mut cost = cfg.cpu.insn_time * a.insns as u64;
                insn_total += cost;
                let first = a.addr / cfg.page_bytes;
                let last = (a.addr + a.len.max(1) as u64 - 1) / cfg.page_bytes;
                for page in first..=last {
                    if lru.touch(page) {
                        cost += cfg.cpu.dram_latency;
                        hits += 1;
                    } else {
                        cost += miss_cost;
                        misses += 1;
                        net_bytes += cfg.page_bytes;
                        mem_bytes += cfg.page_bytes;
                        if routed {
                            fills.push(mem.owner_of(page * cfg.page_bytes).unwrap_or(0));
                        }
                    }
                }
                pure += cost;
                if a.traversal {
                    traversal_pure += cost;
                }
            }
            pure += *cpu_work;
            // The request-dispatch engine admits the request (queueing +
            // occupancy under load), then an application thread hosts it
            // end-to-end.
            let admitted = fe.book_dispatch(ready);
            let slot = threads.acquire(admitted, pure);
            // The swap subsystem serves this request's misses.
            let mut pipe_end = slot.grant.start;
            let mut routed_wire = None;
            if misses > 0 {
                let g = swap_pipe.acquire_for(slot.grant.start, cfg.swap_service * misses);
                pipe_end = match fabric.as_mut() {
                    // Routed: each fill is a request to the owning node and
                    // a page riding back over the fabric's finite links.
                    Some(fab) => {
                        let mut cursor = g.end;
                        for &owner in &fills {
                            let req = fab
                                .send(
                                    cursor,
                                    Endpoint::Cpu(0),
                                    Endpoint::Mem(owner),
                                    cfg.net.request_bytes,
                                )
                                .expect("fabric covers every node");
                            cursor = fab
                                .send(req, Endpoint::Mem(owner), Endpoint::Cpu(0), cfg.page_bytes)
                                .expect("fabric covers every node");
                        }
                        routed_wire = Some(cursor - g.end);
                        cursor + cfg.fault_software + *cpu_work
                    }
                    None => g.end + cfg.net.one_way * 2 + cfg.fault_software + *cpu_work,
                };
            }
            let end = (slot.grant.start + pure).max(pipe_end);
            if let Some(b) = breakdown.as_mut() {
                let arrive = arrivals.map_or(ready, |a| a[idx]);
                let wire =
                    routed_wire.unwrap_or_else(|| (cfg.net.one_way * 2 + page_wire) * misses);
                // Priced components; thread/pipe queueing and the pieces
                // hidden under the completion `max` fall to the residual.
                b.record_components(
                    end - arrive,
                    &[
                        (Phase::Queued, admitted - ready),
                        (Phase::CacheHit, cfg.cpu.dram_latency * hits),
                        (
                            Phase::Dispatch,
                            insn_total + *cpu_work + cfg.fault_software * misses,
                        ),
                        (Phase::WireHop, wire),
                        (Phase::MemTrip, cfg.swap_service * misses),
                    ],
                );
            }
            (end, traversal_pure, pure)
        });

    BaselineReport {
        label: "Cache-based",
        completed: requests.len() as u64,
        latency,
        throughput: measured_rate(requests.len(), makespan, arrivals),
        traversal_time: traversal_total,
        total_time: latency_total,
        net_bytes: fabric
            .as_ref()
            .map_or(net_bytes, Fabric::host_injected_bytes),
        mem_bytes,
        cache_hit_ratio: Some(lru.hit_ratio()),
        cache_hit_rate: 0.0,
        link_utilization: fabric.as_ref().map_or(0.0, |f| {
            f.cpu_downlink_peak(demand_horizon(arrivals, makespan))
        }),
        queue_depth: fabric.as_ref().map_or(0, |f| f.max_queue_depth() as u64),
        failovers: 0,
        unavailable_completions: 0,
        degraded_p99: SimTime::ZERO,
        phase: breakdown.as_ref().and_then(LatencyBreakdown::attribution),
        makespan,
    }
}

// ------------------------------------------------------------------- RPC

/// Which RPC flavour to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcFlavor {
    /// DPDK RPC on Xeon memory-node CPUs.
    Rpc,
    /// RPC on wimpy ARM SmartNIC cores.
    RpcArm,
    /// AIFM: an object cache at the CPU node in front of a TCP-based RPC.
    CacheRpc,
}

/// RPC system configuration.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Flavour.
    pub flavor: RpcFlavor,
    /// Worker cores per memory node (Xeon: the minimum that saturates
    /// 25 GB/s of dependent chasing ≈ 10; ARM: the Bluefield-2's 8).
    pub workers_per_node: usize,
    /// Per-request server software time (rx parse + handler + tx).
    pub request_software: SimTime,
    /// Extra per-request overhead for the TCP-based stack (Cache+RPC only;
    /// §6.1 attributes AIFM's latency gap to it).
    pub tcp_extra: SimTime,
    /// CPU-node object cache (Cache+RPC only), bytes.
    pub object_cache_bytes: u64,
    /// Cached object granularity (the 8 KiB application object).
    pub object_bytes: u64,
    /// Memory-node DRAM bandwidth each node serves.
    pub dram_bytes_per_sec: u64,
    /// Network constants.
    pub net: NetModel,
    /// CPU-node request-dispatch engine — the extended evaluation
    /// attributes the RPC baseline's collapse to exactly this resource
    /// saturating. One dispatch op is booked per network issue (the initial
    /// request plus every cross-node bounce). The default is uncontended.
    pub dispatch: DispatchConfig,
    /// Front-end traversal-cell cache (the shared
    /// `pulse_frontend::TraversalCache`, disabled by default): leading
    /// traversal hops whose cells are all resident run at
    /// `CacheConfig::hit_ns` on the CPU instead of as remote segments, the
    /// remainder executes remotely as usual, remotely-read traversal cells
    /// fill the cache (priced as extra response bytes), and a request's
    /// writes age the touched lines out. This is "RPC+cache" in the sweep
    /// curves — the hypothetical the paper's framing argues cannot save
    /// pointer traversals.
    pub cache: CacheConfig,
    /// Rack geometry. On the flat default the request/bounce/response trips
    /// are priced with the end-to-end `net` constants and a single CPU
    /// receive pipe; on a routed spec every trip — including both legs of
    /// every cross-node bounce — is a fabric send over finite directed
    /// links, so the bouncing traffic converges on the CPU node's downlink
    /// (the incast pulse's chained hops avoid).
    pub topology: TopologySpec,
    /// Scheduled faults — the *same* schedule the pulse rack runs, so
    /// pulse-vs-RPC curves degrade under identical failure injections. A
    /// request whose target node is down at service time retries against
    /// the extent's replica set (`ClusterMemory::replicas_of`, governed by
    /// `ClusterMemory::set_replication` on the memory handed to the run):
    /// each redirect pays one extra timeout round trip and counts as a
    /// failover; with no live replica the request fault-completes as
    /// unavailable. The RPC model never rebuilds lost extents — recovery
    /// is fail-stop-and-restore only.
    pub faults: Vec<FaultEvent>,
    /// Record per-phase latency attribution
    /// ([`BaselineReport::phase`]). Off by default; the run's timing is
    /// identical either way.
    pub trace: bool,
}

impl RpcConfig {
    /// The paper's RPC-on-Xeon setup.
    pub fn rpc() -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::Rpc,
            workers_per_node: 10,
            request_software: SimTime::from_nanos(850),
            tcp_extra: SimTime::ZERO,
            object_cache_bytes: 0,
            object_bytes: 8192,
            dram_bytes_per_sec: 25_000_000_000,
            net: NetModel::default(),
            dispatch: DispatchConfig::default(),
            cache: CacheConfig::disabled(),
            topology: TopologySpec::Flat,
            faults: Vec::new(),
            trace: false,
        }
    }

    /// RPC on the Bluefield-2's ARM cores.
    pub fn rpc_arm() -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::RpcArm,
            workers_per_node: 8,
            request_software: SimTime::from_micros(3),
            ..RpcConfig::rpc()
        }
    }

    /// AIFM-style Cache+RPC with a 2 GB-class (scaled) object cache.
    pub fn cache_rpc(cache_bytes: u64) -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::CacheRpc,
            tcp_extra: SimTime::from_micros(2),
            object_cache_bytes: cache_bytes,
            ..RpcConfig::rpc()
        }
    }

    fn cpu(&self) -> CpuModel {
        match self.flavor {
            RpcFlavor::RpcArm => CpuModel::arm_cortex_a72(),
            _ => CpuModel::xeon(),
        }
    }

    fn label(&self) -> &'static str {
        match self.flavor {
            RpcFlavor::Rpc => "RPC",
            RpcFlavor::RpcArm => "RPC-ARM",
            RpcFlavor::CacheRpc => "Cache+RPC",
        }
    }
}

/// Runs an RPC-family system over a request stream.
///
/// Traversals execute on the owning memory node's worker cores; a traversal
/// that crosses onto another node bounces through the CPU node (the
/// "return to the CPU node whenever the traversal accesses a pointer on
/// another memory node" penalty of §5 that pulse's in-network routing
/// removes).
pub fn run_rpc(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: RpcConfig,
) -> BaselineReport {
    rpc_impl(mem, requests, concurrency, cfg, None)
}

/// Open-loop variant of [`run_rpc`]: request `i` arrives at `arrivals[i]`
/// (sorted ascending) and its latency is measured from that arrival,
/// queueing included. The report's throughput is goodput over the
/// arrival-to-last-completion span.
pub fn run_rpc_open_loop(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: RpcConfig,
    arrivals: &[SimTime],
) -> BaselineReport {
    rpc_impl(mem, requests, concurrency, cfg, Some(arrivals))
}

fn rpc_impl(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: RpcConfig,
    arrivals: Option<&[SimTime]>,
) -> BaselineReport {
    let nodes = mem.node_count();
    let cpu = cfg.cpu();
    let mut workers: Vec<ServerPool> = (0..nodes)
        .map(|_| ServerPool::new(cfg.workers_per_node))
        .collect();
    let mut dram: Vec<SerialResource> = (0..nodes)
        .map(|_| SerialResource::new(cfg.dram_bytes_per_sec.saturating_mul(8)))
        .collect();
    // Flat: the CPU-node's receive direction (responses) is the only link
    // pipe that ever approaches saturation in these workloads. Routed: the
    // fabric's directed links replace it entirely.
    let mut link_rx = SerialResource::new(cfg.net.bits_per_sec);
    let mut fabric = cfg.net.build_fabric(cfg.topology, nodes);
    // The shared CPU-node front end: dispatch engine plus the optional
    // traversal-cell cache.
    let mut fe = CpuFrontEnd::new(LinkConfig::default(), cfg.dispatch, cfg.cache);
    let mut object_cache = (cfg.object_cache_bytes > 0)
        .then(|| LruSet::new((cfg.object_cache_bytes / cfg.object_bytes).max(1) as usize));
    let mut net_bytes = 0u64;
    let mut mem_bytes = 0u64;
    // Fault bookkeeping: the schedule sorted by time, the degraded window
    // it opens, and the counters the report surfaces.
    let mut faults = cfg.faults.clone();
    faults.sort_by_key(|f| f.at);
    let window = degraded_window(&faults);
    let mut failovers = 0u64;
    let mut unavailable = 0u64;
    let mut degraded = LatencyHistogram::new();
    let mut breakdown = cfg.trace.then(LatencyBreakdown::new);

    struct Priced {
        /// The functional access trace, segmented lazily per serve (the
        /// front-end cache decides per request how much of the leading
        /// traversal runs locally).
        accesses: Vec<Access>,
        cpu_work: SimTime,
        response_bytes: u64,
        object_addr: Option<u64>,
    }

    // Pre-execute functionally, in stream order (updates land in order).
    let priced: Vec<Priced> = requests
        .iter()
        .map(|r| {
            let run = execute_functional(mem, r, 1 << 20).expect("functional run");
            let object_addr = run.accesses.iter().find(|a| !a.traversal).map(|a| a.addr);
            let response_bytes = cfg.net.response_base_bytes
                + r.response_extra_bytes as u64
                + r.object_io
                    .map_or(0, |io| if io.write { 0 } else { io.len as u64 });
            Priced {
                accesses: run.accesses,
                cpu_work: r.cpu_work,
                response_bytes,
                object_addr,
            }
        })
        .collect();

    let (latency, makespan, traversal_total, latency_total) =
        drive(requests.len(), concurrency, arrivals, |idx, ready| {
            let p = &priced[idx];
            // Front-end cache prefix: leading traversal *read* hops whose
            // cells are all resident (and version-valid) execute on the
            // CPU at hit cost; the first miss, write, or object access
            // sends the remainder down the normal RPC path. Remotely-read
            // traversal cells then fill the cache (each filled line rides
            // the response as a 12 B descriptor + line bytes), and this
            // request's writes age the touched lines out — the coherence
            // traffic a real CPU-side cache would have to pay for.
            let mut prefix = 0usize;
            let mut prefix_time = SimTime::ZERO;
            let mut fill_wire_bytes = 0u64;
            if let Some(cache) = fe.cache_mut() {
                let hit = cache.config().hit_ns;
                for a in &p.accesses {
                    if !a.traversal || a.write || !cache.probe_range(a.addr, a.len as u64, mem) {
                        cache.note_miss();
                        break;
                    }
                    cache.note_hit();
                    prefix += 1;
                    prefix_time += hit + cpu.insn_time * a.insns as u64;
                }
                let remaining = &p.accesses[prefix..];
                for a in remaining {
                    if a.write {
                        cache.invalidate_range(a.addr, a.len.max(1) as u64);
                    } else if a.traversal {
                        let (lines, bytes) = cache.fill_range(a.addr, a.len as u64, mem);
                        fill_wire_bytes +=
                            lines * pulse_net::TOUCHED_DESCRIPTOR_BYTES as u64 + bytes;
                    }
                }
                if remaining.is_empty() {
                    // The whole traversal ran from cache: no RPC at all.
                    // One dispatch op still admits the request, and the
                    // response is assembled locally.
                    let admitted = fe.book_dispatch(ready);
                    let pure = prefix_time + p.cpu_work;
                    let end = admitted + pure;
                    if let Some((from, to)) = window {
                        if end >= from && end <= to {
                            degraded.record(end - ready);
                        }
                    }
                    if let Some(b) = breakdown.as_mut() {
                        let arrive = arrivals.map_or(ready, |a| a[idx]);
                        b.record_components(
                            end - arrive,
                            &[
                                (Phase::Queued, admitted - ready),
                                (Phase::CacheHit, prefix_time),
                                (Phase::Dispatch, p.cpu_work),
                            ],
                        );
                    }
                    return (end, prefix_time, pure);
                }
            }
            let remaining = &p.accesses[prefix..];
            // Segment the (remaining) trace by owning node — identical
            // math to the pre-cache model when the prefix is empty. Under
            // a fault schedule the target is resolved against node health
            // at admission: a dark primary redirects the segment to the
            // first live replica (a failover, priced below as an extra
            // timeout round trip); an extent with no live replica
            // fault-completes the whole request as unavailable.
            let mut segments: Vec<(usize, SimTime, u64, bool)> = Vec::new();
            let mut req_failovers = 0u64;
            let mut dead_end = false;
            for a in remaining {
                let primary = mem.owner_of(a.addr).unwrap_or(0);
                let owner = if faults.is_empty() || !node_down_at(&faults, primary, ready) {
                    primary
                } else {
                    match mem
                        .replicas_of(a.addr)
                        .into_iter()
                        .find(|&m| !node_down_at(&faults, m, ready))
                    {
                        Some(m) => m,
                        None => {
                            dead_end = true;
                            break;
                        }
                    }
                };
                let step = if a.traversal {
                    cpu.dram_latency + cpu.insn_time * a.insns as u64
                } else {
                    SimTime::serialization(a.len as u64, cfg.dram_bytes_per_sec * 8)
                };
                match segments.last_mut() {
                    Some((node, t, b, trav)) if *node == owner && *trav == a.traversal => {
                        *t += step;
                        *b += a.len as u64;
                    }
                    _ => {
                        if owner != primary {
                            req_failovers += 1;
                        }
                        segments.push((owner, step, a.len as u64, a.traversal));
                    }
                }
            }
            if dead_end {
                // One timed-out attempt: the client learns nothing is
                // left to serve this request and gives up.
                unavailable += 1;
                net_bytes += cfg.net.request_bytes;
                let admitted = fe.book_dispatch(ready);
                let pure = cfg.net.one_way * 2 + cfg.tcp_extra * 2;
                let end = admitted + pure;
                if let Some((from, to)) = window {
                    if end >= from && end <= to {
                        degraded.record(end - ready);
                    }
                }
                if let Some(b) = breakdown.as_mut() {
                    let arrive = arrivals.map_or(ready, |a| a[idx]);
                    // The whole timed-out attempt is failure handling.
                    b.record_components(
                        end - arrive,
                        &[(Phase::Queued, admitted - ready), (Phase::Failover, pure)],
                    );
                }
                return (end, SimTime::ZERO, pure);
            }
            failovers += req_failovers;
            // Cache+RPC: a hit in the object cache spares the object's wire
            // transfer, but the traversal still runs remotely — the index
            // itself lives in disaggregated memory, which is why the paper
            // finds "data structure-aware caching is not beneficial" here.
            let mut response_bytes = p.response_bytes;
            if let (Some(cache), Some(addr)) = (object_cache.as_mut(), p.object_addr) {
                if cache.touch(addr / cfg.object_bytes) {
                    response_bytes = cfg.net.response_base_bytes;
                }
            }
            response_bytes += fill_wire_bytes;
            // Uncontended path time.
            let mut traversal = prefix_time;
            let mut service = SimTime::ZERO;
            let mut bounce = SimTime::ZERO;
            for (i, &(_, svc_time, _, is_trav)) in segments.iter().enumerate() {
                service += svc_time + cfg.request_software;
                if i > 0 {
                    bounce += cfg.net.one_way * 2; // CPU-node bounce per hop
                    net_bytes += 2 * cfg.net.bounce_bytes;
                }
                if is_trav {
                    traversal += svc_time;
                }
            }
            let response_wire = SimTime::serialization(response_bytes, cfg.net.bits_per_sec);
            net_bytes += cfg.net.request_bytes + response_bytes;
            let pure = cfg.net.one_way * 2
                + cfg.tcp_extra * 2
                // Each failover was detected by timing out the primary
                // first: one wasted round trip per redirected segment.
                + cfg.net.one_way * (2 * req_failovers)
                + prefix_time
                + service
                + bounce
                + response_wire
                + p.cpu_work;
            // Contended bookings, all at admission time (time-ordered
            // across the closed loop). The CPU node's dispatch engine
            // serializes every network issue this request makes — the
            // initial RPC plus one re-issue per cross-node bounce — so the
            // CPU side saturates at `contexts / occupancy` issues/sec.
            let mut issued = ready;
            for _ in 0..segments.len().max(1) {
                issued = fe.book_dispatch(issued);
            }
            let end = match fabric.as_mut() {
                // Routed: every trip is a fabric send over finite directed
                // links. The request rides to the first owning node; each
                // cross-node bounce is a reply up to the CPU node plus a
                // re-issue down to the next node — so every bounce crosses
                // the CPU downlink, and concurrent requests incast there.
                Some(fab) => {
                    let first = segments.first().map_or(0, |s| s.0);
                    let mut cursor = fab
                        .send(
                            issued + prefix_time,
                            Endpoint::Cpu(0),
                            Endpoint::Mem(first),
                            cfg.net.request_bytes,
                        )
                        .expect("fabric covers every node");
                    let mut last = first;
                    for (i, &(node, svc_time, bytes, _)) in segments.iter().enumerate() {
                        if i > 0 {
                            // The reply leg hauls the fetched cells up with
                            // it — the CPU cannot chase a pointer it has not
                            // seen. Chained traversal never pays this leg,
                            // which is exactly the downlink incast gap.
                            let back = fab
                                .send(
                                    cursor,
                                    Endpoint::Mem(last),
                                    Endpoint::Cpu(0),
                                    cfg.net.bounce_bytes + segments[i - 1].2,
                                )
                                .expect("fabric covers every node");
                            cursor = fab
                                .send(
                                    back,
                                    Endpoint::Cpu(0),
                                    Endpoint::Mem(node),
                                    cfg.net.bounce_bytes,
                                )
                                .expect("fabric covers every node");
                        }
                        let w = workers[node].acquire(cursor, svc_time + cfg.request_software);
                        let d = dram[node].acquire(cursor, bytes);
                        mem_bytes += bytes;
                        cursor = w.grant.end.max(d.end);
                        last = node;
                    }
                    let arrive = fab
                        .send(
                            cursor,
                            Endpoint::Mem(last),
                            Endpoint::Cpu(0),
                            response_bytes,
                        )
                        .expect("fabric covers every node");
                    (ready + pure).max(arrive + p.cpu_work)
                }
                None => {
                    let depart = issued + prefix_time + cfg.net.one_way; // first node
                    let mut worker_end = depart;
                    for &(node, svc_time, bytes, _) in &segments {
                        let w = workers[node].acquire(depart, svc_time + cfg.request_software);
                        let d = dram[node].acquire(depart, bytes);
                        mem_bytes += bytes;
                        worker_end = worker_end.max(w.grant.end).max(d.end);
                    }
                    let rx = link_rx.acquire(worker_end + cfg.net.one_way, response_bytes);
                    (ready + pure)
                        .max(worker_end + cfg.net.one_way + response_wire + p.cpu_work)
                        .max(rx.end + p.cpu_work)
                }
            };
            if let Some((from, to)) = window {
                if end >= from && end <= to {
                    degraded.record(end - ready);
                }
            }
            if let Some(b) = breakdown.as_mut() {
                let arrive = arrivals.map_or(ready, |a| a[idx]);
                // Priced components; worker/DRAM/link contention hidden
                // under the completion `max` falls to the residual.
                b.record_components(
                    end - arrive,
                    &[
                        (Phase::Queued, issued - ready),
                        (Phase::CacheHit, prefix_time),
                        (Phase::Failover, cfg.net.one_way * (2 * req_failovers)),
                        (Phase::WireHop, cfg.net.one_way * 2 + bounce + response_wire),
                        (Phase::MemTrip, service),
                        (Phase::Dispatch, cfg.tcp_extra * 2 + p.cpu_work),
                    ],
                );
            }
            (end, traversal, pure)
        });

    // Unavailable requests never completed, so they count toward neither
    // `completed` nor the throughput derived from it.
    let completed = requests.len() as u64 - unavailable;
    BaselineReport {
        label: cfg.label(),
        completed,
        latency,
        throughput: measured_rate(completed as usize, makespan, arrivals),
        traversal_time: traversal_total,
        total_time: latency_total,
        net_bytes: fabric
            .as_ref()
            .map_or(net_bytes, Fabric::host_injected_bytes),
        mem_bytes,
        cache_hit_ratio: object_cache.map(|c| c.hit_ratio()),
        cache_hit_rate: fe.cache().map_or(0.0, |c| c.hit_rate()),
        link_utilization: fabric.as_ref().map_or(0.0, |f| {
            f.cpu_downlink_peak(demand_horizon(arrivals, makespan))
        }),
        queue_depth: fabric.as_ref().map_or(0, |f| f.max_queue_depth() as u64),
        failovers,
        unavailable_completions: unavailable,
        degraded_p99: degraded.p99(),
        phase: breakdown.as_ref().and_then(LatencyBreakdown::attribution),
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_ds::BuildCtx;
    use pulse_mem::{ClusterAllocator, Placement};
    use pulse_workloads::{Application, Distribution, WebService, WebServiceConfig};

    fn webservice_setup_dist(
        keys: u64,
        object_bytes: u32,
        distribution: Distribution,
    ) -> (ClusterMemory, Vec<AppRequest>) {
        let mut mem = ClusterMemory::new(4);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys,
                    object_bytes,
                    distribution,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
        (mem, reqs)
    }

    fn webservice_setup(keys: u64, object_bytes: u32) -> (ClusterMemory, Vec<AppRequest>) {
        webservice_setup_dist(keys, object_bytes, Distribution::Zipfian)
    }

    #[test]
    fn swap_cache_is_orders_of_magnitude_slower_than_rpc() {
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        // ~105 MB working set with a ~5 MB hash index spread over ~1200
        // pages; a 1 MiB cache forces traversal pages to miss.
        let swap = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                cache_bytes: 1 << 20,
                ..SwapConfig::default()
            },
        );
        let rpc = run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc());
        let ratio = swap.latency.mean.as_nanos_f64() / rpc.latency.mean.as_nanos_f64();
        // Fig. 7: cache-based is 9-34x slower than offloading systems.
        assert!(ratio > 5.0, "swap/rpc latency ratio {ratio}");
        assert!(swap.cache_hit_ratio.unwrap() < 0.999);
        assert!(swap.throughput < rpc.throughput);
    }

    #[test]
    fn warm_small_working_set_mostly_hits() {
        let (mut mem, reqs) = webservice_setup(200, 8192); // ~1.7 MB
        let swap = run_swap_cache(
            &mut mem,
            &reqs,
            4,
            SwapConfig {
                cache_bytes: 64 << 20, // everything fits
                ..SwapConfig::default()
            },
        );
        assert!(
            swap.cache_hit_ratio.unwrap() > 0.5,
            "hit ratio {:?}",
            swap.cache_hit_ratio
        );
    }

    #[test]
    fn rpc_arm_is_slower_than_rpc() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let rpc = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc());
        let arm = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc_arm());
        assert!(
            arm.latency.mean > rpc.latency.mean,
            "arm {} vs rpc {}",
            arm.latency.mean,
            rpc.latency.mean
        );
        assert!(arm.throughput <= rpc.throughput * 1.05);
    }

    #[test]
    fn cache_rpc_latency_not_better_than_rpc() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let rpc = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc());
        let aifm = run_rpc(&mut mem, &reqs, 16, RpcConfig::cache_rpc(4 << 20));
        // §6.1: "Cache+RPC incurs higher latency than RPC ... and does not
        // outperform RPC".
        assert!(
            aifm.latency.mean.as_nanos_f64() >= rpc.latency.mean.as_nanos_f64() * 0.9,
            "aifm {} rpc {}",
            aifm.latency.mean,
            rpc.latency.mean
        );
        assert!(aifm.cache_hit_ratio.is_some());
    }

    #[test]
    fn traversal_fraction_grows_as_cache_shrinks() {
        // Fig. 2(a)'s core observation.
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        let mut fractions = Vec::new();
        for shift in [0u64, 3, 5] {
            let cache = (16u64 << 20) >> shift; // 16 MB, 2 MB, 0.5 MB
            let rep = run_swap_cache(
                &mut mem,
                &reqs,
                8,
                SwapConfig {
                    cache_bytes: cache,
                    ..SwapConfig::default()
                },
            );
            fractions.push(rep.traversal_fraction());
        }
        assert!(
            fractions[0] < fractions[2],
            "traversal fraction should grow with smaller caches: {fractions:?}"
        );
        assert!(fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn open_loop_latency_grows_with_offered_load() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let mut p99_at = |gap_ns: u64| {
            let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
                .map(|i| SimTime::from_nanos(gap_ns * i))
                .collect();
            run_rpc_open_loop(&mut mem, &reqs, 8, RpcConfig::rpc(), &arrivals)
                .latency
                .p99
        };
        let light = p99_at(200_000); // 5 kops offered
        let heavy = p99_at(2_000); // 500 kops offered: far past saturation
        assert!(
            heavy > light * 2,
            "queueing must appear under load: light {light} heavy {heavy}"
        );
    }

    #[test]
    fn open_loop_at_light_load_matches_unloaded_latency() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let closed = run_rpc(&mut mem, &reqs, 1, RpcConfig::rpc());
        let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
            .map(|i| SimTime::from_micros(500 * i))
            .collect();
        let open = run_rpc_open_loop(&mut mem, &reqs, 8, RpcConfig::rpc(), &arrivals);
        // So sparse that no request ever queues: mean within 25% of the
        // single-client closed loop (cache state differs run to run).
        let ratio = open.latency.mean.as_nanos_f64() / closed.latency.mean.as_nanos_f64();
        assert!((0.75..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn contended_dispatch_collapses_rpc_under_load() {
        // The §6 story the extended evaluation tells: the RPC baseline's
        // CPU-side request dispatch is a serial resource, and offering load
        // past its service rate collapses the tail. 200 kops offered vs a
        // 50 kops dispatch engine must blow p99 up and shed goodput.
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
            .map(|i| SimTime::from_nanos(5_000 * i)) // 200 kops offered
            .collect();
        let free = run_rpc_open_loop(&mut mem, &reqs, 16, RpcConfig::rpc(), &arrivals);
        let contended = run_rpc_open_loop(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                dispatch: DispatchConfig::contended(SimTime::from_micros(20), 1),
                ..RpcConfig::rpc()
            },
            &arrivals,
        );
        assert!(
            contended.latency.p99 > free.latency.p99 * 2,
            "dispatch saturation must surface in the tail: free {} contended {}",
            free.latency.p99,
            contended.latency.p99
        );
        assert!(contended.throughput < free.throughput);
    }

    #[test]
    fn contended_dispatch_slows_swap_admission() {
        let (mut mem, reqs) = webservice_setup(200, 8192);
        let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
            .map(|i| SimTime::from_nanos(10_000 * i)) // 100 kops offered
            .collect();
        let base = SwapConfig::default();
        let free = run_swap_cache_open_loop(&mut mem, &reqs, 8, base, &arrivals);
        let contended = run_swap_cache_open_loop(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                dispatch: DispatchConfig::contended(SimTime::from_micros(50), 1),
                ..base
            },
            &arrivals,
        );
        assert!(
            contended.latency.p99 > free.latency.p99,
            "free {} contended {}",
            free.latency.p99,
            contended.latency.p99
        );
    }

    /// The baselines execute the same write model as the rack: a mixed
    /// stream of seqlock-verified reads and locked update traversals
    /// replays through both systems, the updates really mutate the
    /// baseline's memory copy, and the write trips are priced (a mixed
    /// stream touches at least as many DRAM bytes as a read-only one).
    #[test]
    fn mixed_write_traversals_replay_through_baselines() {
        use pulse_mutation::{
            locked_update_stage, retrying_request, verified_read_stage, MutationConfig,
        };
        use std::sync::Arc;

        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
        let map = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            let pairs: Vec<(u64, u64)> = (0..512).map(|k| (k, k)).collect();
            pulse_ds::HashMapDs::build_partitioned(&mut ctx, 8, &pairs, 2).unwrap()
        };
        let find = Arc::new(pulse_mutation::verified_find_program());
        let update = Arc::new(pulse_mutation::locked_update_program());
        let mc = MutationConfig::default();
        let reads: Vec<AppRequest> = (0..100)
            .map(|k| retrying_request(verified_read_stage(&find, map.bucket_addr(k), k), mc))
            .collect();
        let mixed: Vec<AppRequest> = (0..100)
            .map(|k| {
                if k % 2 == 0 {
                    retrying_request(
                        locked_update_stage(&update, map.bucket_addr(k), k, k + 7_000),
                        mc,
                    )
                } else {
                    retrying_request(verified_read_stage(&find, map.bucket_addr(k), k), mc)
                }
            })
            .collect();
        let ro = run_rpc(&mut mem, &reads, 8, RpcConfig::rpc());
        let rw = run_rpc(&mut mem, &mixed, 8, RpcConfig::rpc());
        assert_eq!(rw.completed, 100);
        assert!(
            rw.mem_bytes >= ro.mem_bytes,
            "write trips must be priced: ro {} rw {}",
            ro.mem_bytes,
            rw.mem_bytes
        );
        // The sequential replay applied the updates for real.
        assert_eq!(map.get_host(&mut mem, 42).unwrap(), Some(42 + 7_000));
        assert_eq!(map.get_host(&mut mem, 43).unwrap(), Some(43));
        // The swap cache executes the identical stream (fresh values).
        let swap = run_swap_cache(&mut mem, &mixed, 8, SwapConfig::default());
        assert_eq!(swap.completed, 100);
    }

    #[test]
    fn routed_rpc_prices_bounces_on_the_cpu_downlink() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let flat = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc());
        let routed = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                topology: TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 2,
                },
                ..RpcConfig::rpc()
            },
        );
        // Flat builds no fabric: the new metrics are exactly zero.
        assert_eq!(flat.link_utilization, 0.0);
        assert_eq!(flat.queue_depth, 0);
        // Routed prices the same requests on finite links: the CPU downlink
        // is visibly busy and byte accounting still flows.
        assert_eq!(routed.completed, flat.completed);
        assert!(routed.link_utilization > 0.0);
        assert!(routed.net_bytes > 0);
        assert!(
            routed.latency.mean >= flat.latency.mean,
            "finite links cannot make requests faster: flat {} routed {}",
            flat.latency.mean,
            routed.latency.mean
        );
    }

    #[test]
    fn routed_swap_fills_cross_the_fabric() {
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        let small = SwapConfig {
            cache_bytes: 1 << 20,
            ..SwapConfig::default()
        };
        let flat = run_swap_cache(&mut mem, &reqs, 8, small);
        let routed = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                topology: TopologySpec::Tor { racks: 2 },
                ..small
            },
        );
        assert_eq!(flat.link_utilization, 0.0);
        assert!(
            routed.link_utilization > 0.0,
            "page fills must show on the downlink"
        );
        assert!(routed.net_bytes > 0);
        assert_eq!(routed.completed, flat.completed);
    }

    #[test]
    fn rpc_crash_with_replication_fails_over() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        mem.set_replication(2);
        let clean = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc());
        let faulted = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                faults: vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))],
                ..RpcConfig::rpc()
            },
        );
        // Every request still completes — redirected onto replicas, each
        // redirect paying a detection round trip — and the whole degraded
        // run is slower than the clean one.
        assert_eq!(faulted.completed, clean.completed);
        assert_eq!(faulted.unavailable_completions, 0);
        assert!(faulted.failovers > 0);
        assert!(faulted.latency.mean > clean.latency.mean);
        assert!(faulted.degraded_p99 > SimTime::ZERO);
        assert_eq!(clean.failovers, 0);
        assert_eq!(clean.degraded_p99, SimTime::ZERO);
    }

    #[test]
    fn rpc_crash_without_replication_loses_requests() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let faulted = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                faults: vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))],
                ..RpcConfig::rpc()
            },
        );
        assert!(faulted.unavailable_completions > 0);
        assert_eq!(
            faulted.completed + faulted.unavailable_completions,
            reqs.len() as u64
        );
        // Throughput counts completions only: the lost requests are not
        // served load.
        let served = faulted.throughput * faulted.makespan.as_secs_f64();
        assert!(
            (served - faulted.completed as f64).abs() < 1e-6 * faulted.completed as f64,
            "throughput x makespan = {served}, completed = {}",
            faulted.completed
        );
    }

    #[test]
    fn rpc_partition_heal_restores_service() {
        // A node unreachable early in the run and healed later: requests
        // admitted inside the window are lost (no replicas), later ones
        // complete — and nothing counts as a failover at replication 1.
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let faulted = run_rpc(
            &mut mem,
            &reqs,
            2,
            RpcConfig {
                faults: vec![
                    FaultEvent::new(SimTime::ZERO, FaultKind::LinkPartition(1)),
                    FaultEvent::new(SimTime::from_micros(200), FaultKind::LinkHeal(1)),
                ],
                ..RpcConfig::rpc()
            },
        );
        assert!(faulted.unavailable_completions > 0);
        assert!(faulted.completed > 0);
        assert_eq!(faulted.failovers, 0);
    }

    #[test]
    fn traced_baselines_attribute_phases_without_perturbing_timing() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let plain_rpc = run_rpc(&mut mem, &reqs, 16, RpcConfig::rpc());
        let traced_rpc = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                trace: true,
                ..RpcConfig::rpc()
            },
        );
        assert!(plain_rpc.phase.is_none(), "tracing is off by default");
        assert_eq!(plain_rpc.latency.mean, traced_rpc.latency.mean);
        assert_eq!(plain_rpc.latency.p99, traced_rpc.latency.p99);
        let attr = traced_rpc.phase.expect("attribution recorded");
        assert_eq!(attr.count, reqs.len() as u64);
        // Per-phase means partition the mean latency (each mean floors
        // picos independently, so the sum may undershoot by < PHASES ps).
        let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        let e2e = traced_rpc.latency.mean.as_picos();
        assert!(
            sum <= e2e && e2e - sum < pulse_trace::PHASES as u64,
            "phase means {sum} ps vs mean latency {e2e} ps"
        );
        assert!(attr.mean_of(Phase::WireHop) > SimTime::ZERO);
        assert!(attr.mean_of(Phase::MemTrip) > SimTime::ZERO);

        let traced_swap = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                trace: true,
                ..SwapConfig::default()
            },
        );
        let attr = traced_swap.phase.expect("attribution recorded");
        assert_eq!(attr.count, reqs.len() as u64);
        let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        let e2e = traced_swap.latency.mean.as_picos();
        assert!(sum <= e2e && e2e - sum < pulse_trace::PHASES as u64);
    }

    #[test]
    fn traced_rpc_dead_end_counts_failover_phase() {
        // No replication + an immediate crash: some requests dead-end as
        // unavailable; their timed-out attempts must land in Failover.
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let rep = run_rpc(
            &mut mem,
            &reqs,
            16,
            RpcConfig {
                faults: vec![FaultEvent::new(SimTime::ZERO, FaultKind::MemCrash(0))],
                trace: true,
                ..RpcConfig::rpc()
            },
        );
        assert!(rep.unavailable_completions > 0);
        let attr = rep.phase.expect("attribution recorded");
        assert!(attr.mean_of(Phase::Failover) > SimTime::ZERO);
    }

    #[test]
    fn results_are_deterministic() {
        let (mut mem, reqs) = webservice_setup(1_000, 8192);
        let a = run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc());
        let b = run_rpc(&mut mem, &reqs, 8, RpcConfig::rpc());
        assert_eq!(a.latency.mean, b.latency.mean);
        assert_eq!(a.net_bytes, b.net_bytes);
    }
}
