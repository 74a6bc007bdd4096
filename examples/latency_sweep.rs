//! Latency-vs-offered-load sweep: the extended evaluation's headline
//! curve, produced by the open-loop pipeline end to end — now with honest
//! CPU-side saturation and full workload coverage.
//!
//! A Poisson [`ArrivalProcess`] feeds `Runtime::submit_at` through the
//! `pulse-bench` `sweep()` ladder. Nineteen curves run the identical
//! arrival schedule:
//!
//! * **pulse** — the rack (2 memory nodes, 2 CPU nodes) over WebService,
//! * **RPC** / **Cache-based** — the baselines over the same WebService
//!   deployment,
//! * **pulse-wiredtiger** / **pulse-btrdb** — the rack over the staged
//!   B+Tree applications,
//! * **pulse-ycsb-a** / **pulse-ycsb-b** — read-write mixes over the hash
//!   map: seqlock-verified reads and locked in-place update traversals
//!   (`pulse-mutation`), retries counted per rung,
//! * **pulse-ycsb-e** — the B+Tree mix: staged scans plus host-path
//!   structural inserts,
//! * **RPC-ycsb-a** — the RPC baseline under the same mixed stream, so
//!   the pulse-vs-RPC comparison covers the write path too,
//! * **pulse+cache** / **RPC+cache** — the skewed read-only WebService
//!   deployment with a coherent front-end cache at every CPU node
//!   (`CacheConfig`): cached hops walk locally, misses offload from the
//!   last cached pointer, every hit is version-validated,
//! * **pulse-ycsb-a+cache** — the same cache under the write-heavy mix,
//!   where invalidation-on-update collapses the benefit — the paper's
//!   "caches can't save pointer-traversals" claim, measured instead of
//!   asserted (a cache-size × Zipf-θ grid prints alongside),
//! * **pulse-leafspine-hot** / **RPC-leafspine-hot** — the multi-rack
//!   incast comparison: four memory nodes on a 2-leaf/2-spine routed
//!   fabric (`TopologySpec::LeafSpine`), Zipf-skewed keys concentrating
//!   traversals on the hot buckets' owning node. Every packet is priced
//!   hop by hop on finite links; RPC's per-crossing CPU bounce drags every
//!   traversal through the CPU node's downlink (incast), while pulse's
//!   chained hops ride memory-to-memory paths — the separation the paper's
//!   in-network routing argument predicts, with per-curve CPU-downlink
//!   utilization and queue depth in the emitted JSON,
//! * **pulse-crash** / **pulse-crash-replicated** / **RPC-crash** — the
//!   SLO-under-failure comparison: four flat memory nodes, node 0
//!   crashes 30 µs into every rung. Unreplicated pulse fault-completes
//!   every request whose data died with the node
//!   (`unavailable_completions`); with two-way replication the rack
//!   re-plans onto surviving replicas (`failovers`) and streams rebuild
//!   traffic that competes with foreground requests
//!   (`rereplication_bytes`), finishing every request; the replicated RPC
//!   baseline fails over too (one timeout round trip per redirected
//!   segment) but never rebuilds. Each crash curve's p99 over the
//!   degraded window is emitted as `degraded_p99_us`,
//! * **pulse-spec** / **pulse-spec-ycsb-a** — the ISA-v2 curves: the same
//!   rack with speculative next-hop issue, same-node hop batching, and
//!   (read-heavy only) shared-prefix coalescing switched on. The
//!   read-heavy curve moves the sustained-load knee; the 50%-update mix
//!   prices the speculation honestly — concurrent updates bump granule
//!   versions inside speculation windows, so `mis_speculations` is
//!   nonzero. These two land in `BENCH_spec_sweep.json`, keeping the
//!   default `BENCH_sweep.json` byte-identical to the pinned golden.
//!
//! The curve table is `pulse_bench::ci::ci_curves`, shared with
//! `tests/sweep_invariants.rs`: each curve is one row built by
//! `pulse_bench::rack_factory(builder, app, requests)` for the pulse rack
//! or `pulse_bench::baseline_factory(builder, kind, app, requests)` for the
//! RPC and swap baselines. Every engine runs the same contended dispatch
//! model (`ci::DISPATCH_OCCUPANCY` per packet on `ci::DISPATCH_CONTEXTS`
//! contexts), so CPU-side queueing — the effect the extended evaluation
//! blames for the RPC baseline's collapse — shows up in every curve. The
//! "sustained load" headline counts only rungs whose goodput kept up with
//! the offered load (within `pulse_bench::GOODPUT_TOLERANCE`), reporting
//! *achieved*, not offered, kops.
//!
//! ```sh
//! cargo run --release --example latency_sweep
//! cargo run --release --example latency_sweep -- --requests 300 --loads 20,60,120
//! cargo run --release --example latency_sweep -- --workers 1   # serial schedule
//! ```
//!
//! The nineteen curves run on `pulse_bench::sweep_par_with`'s bounded
//! worker pool: every (curve, rung) pair is a deterministic closed world,
//! so workers claim rungs in parallel and the results are stitched back in
//! ladder order — `BENCH_sweep.json` is byte-identical for any worker
//! count. Per-curve wall-clock prints as each curve finishes.
//!
//! The run writes the seventeen default curves to `BENCH_sweep.json`, the
//! two ISA-v2 curves to `BENCH_spec_sweep.json`, and the simulator's own
//! speed (sim-ops/sec per curve, wall-clock per rung) to
//! `BENCH_simspeed.json`, and prints each curve and the sweep's headline
//! comparisons. It asserts nothing about the results: on the CI ladder
//! (`--requests 300 --loads 100,400,800`) `tests/sweep_invariants.rs`
//! asserts the sweep's claims and byte-compares both sweep documents
//! against their goldens, and CI `cmp`s the files this run writes against
//! the same goldens.
//!
//! `--trace <path>` additionally runs one fully-traced rung *after* the
//! sweep (tracing stays off in every ladder curve, so `BENCH_sweep.json`
//! is byte-identical with or without the flag): the routed leaf-spine
//! WebService deployment with span recording on, exported as a
//! Perfetto-loadable Chrome trace at `<path>` plus a one-curve
//! `BENCH_traced_sweep.json` carrying the per-phase latency attribution
//! (`"phase"` objects) that CI's trace gate validates.

use pulse::{Phase, RunCounters};
use pulse_bench::ci::{
    self, ci_curves, CPUS, CRASH_AT, CRASH_NODES, DISPATCH_CONTEXTS, DISPATCH_OCCUPANCY,
    GRID_CACHE_BYTES, GRID_THETAS_MILLI, NODES, SEED, SLO_P99_US,
};
use pulse_bench::{simspeed_json, sweep_json, SweepReport};

fn main() -> Result<(), pulse::Error> {
    let (loads_kops, requests, workers, trace_path) = parse_args();

    println!("latency-vs-load sweep — {NODES} memory nodes, {CPUS} CPU nodes");
    println!("open-loop Poisson arrivals (seed {SEED}), {requests} requests per rung");
    println!(
        "dispatch engine: {:.1} us occupancy x {} contexts = {:.0} kops/CPU saturation",
        DISPATCH_OCCUPANCY.as_micros_f64(),
        DISPATCH_CONTEXTS,
        ci::dispatch().saturation_rate() / 1e3
    );
    println!("parallel sweep harness: {workers} worker threads\n");

    let run = ci_curves(&loads_kops, requests).sweep(workers, |timing| {
        println!(
            "  [done] {:<20} {:>9.0} ms  ({:.2e} sim-ops/s)",
            timing.label,
            timing.wall_ms,
            timing.sim_ops_per_sec()
        );
    })?;
    println!(
        "\nall {} curves in {:.0} ms wall-clock on {} workers\n",
        run.pool.curves.len(),
        run.pool.total_wall_ms,
        run.pool.workers
    );
    let curves = run.default_curves();
    let spec_curves = run.spec_curves();
    let curve = |label: &str| {
        run.pool
            .curves
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("the table has a {label} curve"))
    };
    let sustained = |label: &str| curve(label).max_load_under_p99(SLO_P99_US);

    for c in &run.pool.curves {
        print_curve(c);
    }

    println!(
        "pulse-ycsb-a: {} seqlock retries across the ladder",
        total(curve("pulse-ycsb-a"), |c| c.retries)
    );
    let hit = |label: &str| {
        curve(label)
            .points
            .iter()
            .map(|p| p.counters.cache_hit_rate)
            .fold(f64::NAN, f64::max)
    };
    println!(
        "front-end cache hit rates: pulse+cache {:.3}, RPC+cache {:.3}, \
         pulse-ycsb-a+cache {:.3}",
        hit("pulse+cache"),
        hit("RPC+cache"),
        hit("pulse-ycsb-a+cache")
    );

    println!("\ncache-size x zipf-theta hit-rate grid (pulse, one rung):");
    let grid = ci::cache_grid(loads_kops[0], requests)?;
    println!(
        "{:>12} {:>10} {:>10}",
        "theta \\ size",
        format!("{}KiB", GRID_CACHE_BYTES[0] >> 10),
        format!("{}MiB", GRID_CACHE_BYTES[1] >> 20)
    );
    for (milli, row) in GRID_THETAS_MILLI.iter().zip(&grid) {
        println!(
            "{:>12.2} {:>10.3} {:>10.3}",
            f64::from(*milli) / 1000.0,
            row[0],
            row[1]
        );
    }

    println!("\nsustained load at p99 <= {SLO_P99_US} us (achieved goodput, kops):");
    for c in &run.pool.curves {
        println!(
            "  {:>18}: {}",
            c.label,
            fmt_kops(c.max_load_under_p99(SLO_P99_US))
        );
    }

    println!(
        "\nISA v2 — sustained at p99 <= {SLO_P99_US} us: pulse {} vs pulse-spec {}",
        fmt_kops(sustained("pulse")),
        fmt_kops(sustained("pulse-spec")),
    );
    for c in spec_curves {
        println!(
            "  {:>18}: {} batched hops, {} coalesced prefix hops, {} mis-speculations",
            c.label,
            total(c, |c| c.batched_hops),
            total(c, |c| c.coalesced_prefix_hops),
            total(c, |c| c.mis_speculations),
        );
    }
    println!(
        "skewed-read sustained: pulse {} vs pulse+cache {}",
        fmt_kops(sustained("pulse")),
        fmt_kops(sustained("pulse+cache")),
    );
    println!(
        "mixed YCSB-A sustained: pulse {} vs RPC {}",
        fmt_kops(sustained("pulse-ycsb-a")),
        fmt_kops(sustained("RPC-ycsb-a")),
    );

    let peak_util = |label: &str| {
        curve(label)
            .points
            .iter()
            .map(|p| p.counters.link_utilization)
            .fold(0.0, f64::max)
    };
    println!(
        "\nleaf-spine incast — peak CPU-downlink utilization: pulse {:.3} vs RPC {:.3}",
        peak_util("pulse-leafspine-hot"),
        peak_util("RPC-leafspine-hot")
    );
    println!(
        "leaf-spine incast sustained at p99 <= {SLO_P99_US} us: pulse {} vs RPC {}",
        fmt_kops(sustained("pulse-leafspine-hot")),
        fmt_kops(sustained("RPC-leafspine-hot")),
    );

    println!(
        "\ncrash at {} us, node 0 of {CRASH_NODES} (per-ladder totals):",
        CRASH_AT.as_micros_f64()
    );
    for label in ["pulse-crash", "pulse-crash-replicated", "RPC-crash"] {
        let c = curve(label);
        println!(
            "  {:>24}: {:>5} unavailable, {:>6} failovers, {:>9} rebuild bytes, \
             degraded p99 {:.1} us",
            c.label,
            total(c, |c| c.unavailable_completions),
            total(c, |c| c.failovers),
            total(c, |c| c.rereplication_bytes),
            c.points
                .iter()
                .map(|p| p.counters.degraded_p99)
                .max()
                .unwrap_or_default()
                .as_micros_f64()
        );
    }

    let json = sweep_json(curves);
    std::fs::write("BENCH_sweep.json", &json)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_sweep.json: {e}")))?;
    println!(
        "\nwrote BENCH_sweep.json ({} bytes, {} curves)",
        json.len(),
        curves.len()
    );
    let spec_json = sweep_json(spec_curves);
    std::fs::write("BENCH_spec_sweep.json", &spec_json)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_spec_sweep.json: {e}")))?;
    println!(
        "wrote BENCH_spec_sweep.json ({} bytes, {} ISA-v2 curves)",
        spec_json.len(),
        spec_curves.len()
    );
    let speed_json = simspeed_json(&run.pool);
    std::fs::write("BENCH_simspeed.json", &speed_json)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_simspeed.json: {e}")))?;
    println!(
        "wrote BENCH_simspeed.json ({} bytes, {} workers)",
        speed_json.len(),
        workers
    );

    if let Some(path) = trace_path {
        run_traced_rung(&path, requests, loads_kops[0])?;
    }
    Ok(())
}

/// Runs [`ci::traced_rung`]: writes the Perfetto-loadable Chrome trace to
/// `path` and the one-curve sweep document (with the `"phase"`
/// attribution object) to `BENCH_traced_sweep.json`, then prints the
/// per-phase breakdown.
fn run_traced_rung(path: &str, requests: usize, load_kops: f64) -> Result<(), pulse::Error> {
    let (curve, chrome) = ci::traced_rung(requests, load_kops)?;
    std::fs::write(path, &chrome)
        .map_err(|e| pulse::Error::Config(format!("writing {path}: {e}")))?;
    println!(
        "\nwrote {path} ({} bytes of Chrome trace events)",
        chrome.len()
    );

    let attribution = curve.points[0]
        .phase
        .clone()
        .expect("a traced rung must carry phase attribution");
    let doc = sweep_json(&[curve]);
    std::fs::write("BENCH_traced_sweep.json", &doc)
        .map_err(|e| pulse::Error::Config(format!("writing BENCH_traced_sweep.json: {e}")))?;
    println!("wrote BENCH_traced_sweep.json ({} bytes)", doc.len());

    println!(
        "per-phase latency attribution over {} traced requests at {load_kops:.0} kops:",
        attribution.count
    );
    println!("{:>16} {:>12} {:>12}", "phase", "mean us", "p99 us");
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        println!(
            "{:>16} {:>12.3} {:>12.3}",
            phase.key(),
            attribution.mean_us[i],
            attribution.p99_us[i]
        );
    }
    println!(
        "{:>16} {:>12.3} (phase means sum to the mean latency)",
        "total",
        attribution.mean_us.iter().sum::<f64>()
    );
    Ok(())
}

/// A counter summed over a curve's rungs.
fn total(curve: &SweepReport, counter: fn(&RunCounters) -> u64) -> u64 {
    curve.points.iter().map(|p| counter(&p.counters)).sum()
}

/// Renders an optional sustained-load headline for stdout tables; `-`
/// when no rung qualified at the SLO.
fn fmt_kops(v: Option<f64>) -> String {
    v.map_or("-".into(), |k| format!("{k:.0} kops"))
}

fn print_curve(curve: &SweepReport) {
    println!("── {} ──", curve.label);
    println!(
        "{:>10} {:>10} | {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>6}",
        "offered", "arrived", "p50", "p95", "p99", "goodput", "upd-good", "retries", "hit"
    );
    for p in &curve.points {
        println!(
            "{:>10.1} {:>10.1} | {:>8.2} {:>8.2} {:>8.2} {:>9.1} {:>9.1} {:>7} {:>6.3}",
            p.offered_kops,
            p.arrived_kops,
            p.p50_us,
            p.p95_us,
            p.p99_us,
            p.goodput_kops,
            p.update_goodput_kops,
            p.counters.retries,
            p.counters.cache_hit_rate
        );
    }
    println!();
}

/// `--loads 20,60,120` (kops), `--requests 300`, `--workers 4`, and
/// `--trace <path>` (off by default), with full-ladder defaults sized for
/// a release-build run. Workers default to the machine's available
/// parallelism; `--workers 1` reproduces the serial schedule (the emitted
/// JSON is byte-identical either way).
fn parse_args() -> (Vec<f64>, usize, usize, Option<String>) {
    let mut loads = vec![100.0, 400.0, 800.0, 1_600.0, 3_200.0];
    let mut requests = 2_000usize;
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        match flag.as_str() {
            "--loads" => {
                loads = value
                    .split(',')
                    .map(|s| s.trim().parse().expect("a numeric kops value"))
                    .collect();
            }
            "--requests" => requests = value.parse().expect("a request count"),
            "--workers" => workers = value.parse().expect("a worker count"),
            "--trace" => {
                assert!(!value.is_empty(), "--trace needs an output path");
                trace = Some(value);
            }
            other => {
                panic!("unknown flag {other} (expected --loads, --requests, --workers, or --trace)")
            }
        }
    }
    assert!(
        !loads.is_empty() && requests > 0 && workers > 0,
        "empty ladder"
    );
    (loads, requests, workers, trace)
}
