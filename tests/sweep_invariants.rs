//! The latency sweep's claims, asserted on the CI ladder
//! (`--requests 300 --loads 100,400,800`, seed 42): pulse against RPC and
//! the cache-based system, the front-end cache story ("caches can't save
//! pointer traversals"), the routed-fabric incast, SLO under failure, and
//! ISA v2. The ladder runs once per test binary on the shared curve table
//! (`pulse_bench::ci`) — the same nineteen curves
//! `examples/latency_sweep.rs` writes — and both emitted documents are
//! byte-compared against their pinned goldens, as is the traced rung's.

use std::sync::OnceLock;

use pulse::sim::SimTime;
use pulse::RunCounters;
use pulse_bench::ci::{self, ci_curves, CiSweep, SLO_P99_US};
use pulse_bench::{sweep_json, SweepReport};

const LOADS_KOPS: [f64; 3] = [100.0, 400.0, 800.0];
const REQUESTS: usize = 300;

/// The CI ladder, swept once and shared by every test in this file.
fn ladder() -> &'static CiSweep {
    static LADDER: OnceLock<CiSweep> = OnceLock::new();
    LADDER.get_or_init(|| {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        ci_curves(&LOADS_KOPS, REQUESTS)
            .sweep(workers, |_| {})
            .expect("the CI ladder runs")
    })
}

/// Every curve of both groups, default group first.
fn all_curves() -> &'static [SweepReport] {
    &ladder().pool.curves
}

fn curve(label: &str) -> &'static SweepReport {
    all_curves()
        .iter()
        .find(|c| c.label == label)
        .unwrap_or_else(|| panic!("the ladder has no {label} curve"))
}

/// A counter summed over a curve's rungs.
fn total(label: &str, counter: fn(&RunCounters) -> u64) -> u64 {
    curve(label)
        .points
        .iter()
        .map(|p| counter(&p.counters))
        .sum()
}

fn sustained(label: &str) -> Option<f64> {
    curve(label).max_load_under_p99(SLO_P99_US)
}

/// `actual` equals the golden file byte for byte; on a mismatch, names
/// the first differing byte and its surroundings.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual == golden {
        return;
    }
    let at = actual
        .bytes()
        .zip(golden.bytes())
        .position(|(a, g)| a != g)
        .unwrap_or(actual.len().min(golden.len()));
    let window = |s: &str| {
        s.get(at.saturating_sub(60)..(at + 60).min(s.len()))
            .map(str::to_owned)
    };
    panic!(
        "the sweep document diverges from tests/golden/{name} at byte {at} \
         ({} vs {} bytes)\n  emitted: {:?}\n   golden: {:?}",
        actual.len(),
        golden.len(),
        window(actual),
        window(golden)
    );
}

#[test]
fn both_documents_match_their_goldens() {
    assert_golden(
        &sweep_json(ladder().default_curves()),
        include_str!("golden/ladder_sweep_pr8.json"),
        "ladder_sweep_pr8.json",
    );
    assert_golden(
        &sweep_json(ladder().spec_curves()),
        include_str!("golden/spec_sweep_pr13.json"),
        "spec_sweep_pr13.json",
    );
}

/// 64-bit FNV-1a: a compact fingerprint of a document too large to pin
/// as a golden file.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The traced rung is the only routed run with tracing on: its document
/// pins the wire phase, and its Chrome trace (pinned by length and
/// fingerprint) every link track name, every span's track and every
/// counter sample.
#[test]
fn the_traced_rung_matches_its_golden() {
    let (curve, chrome) = ci::traced_rung(REQUESTS, LOADS_KOPS[0]).expect("the traced rung runs");
    assert_golden(
        &sweep_json(&[curve]),
        include_str!("golden/traced_sweep_pr17.json"),
        "traced_sweep_pr17.json",
    );
    assert_eq!(
        (chrome.len(), fnv1a(chrome.as_bytes())),
        (951_074, 0xa1d1_1b76_4afa_c77f),
        "the traced rung's Chrome trace changed"
    );
}

#[test]
fn every_curve_is_present_with_a_full_ladder() {
    let labels = |curves: &[SweepReport]| -> Vec<String> {
        curves.iter().map(|c| c.label.clone()).collect()
    };
    assert_eq!(
        labels(ladder().default_curves()),
        [
            "pulse",
            "RPC",
            "Cache-based",
            "pulse-wiredtiger",
            "pulse-btrdb",
            "pulse-ycsb-a",
            "pulse-ycsb-b",
            "pulse-ycsb-e",
            "RPC-ycsb-a",
            "pulse+cache",
            "RPC+cache",
            "pulse-ycsb-a+cache",
            "pulse-leafspine-hot",
            "RPC-leafspine-hot",
            "pulse-crash",
            "pulse-crash-replicated",
            "RPC-crash",
        ]
    );
    assert_eq!(
        labels(ladder().spec_curves()),
        ["pulse-spec", "pulse-spec-ycsb-a"]
    );
    for c in all_curves() {
        assert_eq!(c.points.len(), LOADS_KOPS.len(), "{}: empty rungs", c.label);
    }
}

/// The WebService pair is the paper's direct comparison: queueing only
/// accumulates, so p99 must not fall as load rises, and pulse sustains at
/// least RPC's load at the SLO (2% grace: both are achieved goodput, so
/// equal-rate rungs can differ by completion-tail noise).
#[test]
fn pulse_sustains_at_least_rpc_with_monotone_p99() {
    for label in ["pulse", "RPC"] {
        let points = &curve(label).points;
        assert!(
            points
                .windows(2)
                .all(|w| w[1].p99_us >= w[0].p99_us * 0.999),
            "{label}: p99 regressed as load rose"
        );
    }
    let p = sustained("pulse").expect("pulse sustains some rung");
    if let Some(r) = sustained("RPC") {
        assert!(
            p >= r * 0.98,
            "pulse should sustain at least the RPC load at equal p99 ({p} vs {r})"
        );
    }
}

/// The write path runs: every mixed curve has nonzero update goodput, and
/// a zipfian 50%-update mix under load races the seqlock.
#[test]
fn mixed_curves_update_and_race() {
    for label in ["pulse-ycsb-a", "pulse-ycsb-b", "pulse-ycsb-e", "RPC-ycsb-a"] {
        assert!(
            curve(label)
                .points
                .iter()
                .any(|p| p.update_goodput_kops > 0.0),
            "{label}: update goodput must be nonzero somewhere on the ladder"
        );
    }
    assert!(
        total("pulse-ycsb-a", |c| c.retries) > 0,
        "a zipfian 50%-update mix under load must race at least once"
    );
}

/// The cache claims: every cache-disabled curve hits exactly never; skewed
/// reads hit on every rung of pulse+cache and somewhere on RPC+cache; the
/// write-heavy mix's hit rate is eroded below the read-only one; and the
/// cache does not lower the skewed-read knee.
#[test]
fn caches_hit_only_where_enabled_and_updates_erode_them() {
    for c in all_curves().iter().filter(|c| !c.label.contains("+cache")) {
        assert!(
            c.points.iter().all(|p| p.counters.cache_hit_rate == 0.0),
            "{}: cache-disabled curves must report exactly 0.0",
            c.label
        );
    }
    assert!(
        curve("pulse+cache")
            .points
            .iter()
            .all(|p| p.counters.cache_hit_rate > 0.0),
        "pulse+cache: skewed reads must hit the front-end cache on every rung"
    );
    let peak_hit = |label: &str| {
        curve(label)
            .points
            .iter()
            .map(|p| p.counters.cache_hit_rate)
            .fold(f64::NAN, f64::max)
    };
    let (read_hit, rpc_hit, mixed_hit) = (
        peak_hit("pulse+cache"),
        peak_hit("RPC+cache"),
        peak_hit("pulse-ycsb-a+cache"),
    );
    assert!(rpc_hit > 0.0, "the RPC front-end cache must hit too");
    assert!(
        mixed_hit < read_hit,
        "update invalidation must erode the write-heavy mix's hit rate \
         ({mixed_hit} vs read-only {read_hit})"
    );
    let p = sustained("pulse").expect("pulse sustains some rung");
    let pc = sustained("pulse+cache").expect("pulse+cache sustains some rung");
    assert!(
        pc >= p * 0.98,
        "the front-end cache must not lower the skewed-read knee ({pc} vs {p})"
    );
}

/// Cache-size × Zipf-θ, one rung per cell: at equal capacity higher skew
/// hits more, and at equal skew more capacity never hits less.
#[test]
fn cache_grid_grows_with_skew_and_capacity() {
    let grid = ci::cache_grid(LOADS_KOPS[0], REQUESTS).expect("the grid runs");
    assert!(
        grid[1][1] > grid[0][1],
        "at equal capacity, higher skew must hit more: {grid:?}"
    );
    assert!(
        grid[1][1] >= grid[1][0],
        "at equal skew, more capacity must not hit less: {grid:?}"
    );
}

/// The routed fabric: flat curves carry exactly zero fabric metrics; both
/// routed curves load the CPU downlink; RPC's CPU bounce loads it at least
/// as hard as pulse's chained hops on every rung and strictly harder on
/// one; and pulse sustains strictly more load there (or RPC none at all).
#[test]
fn the_routed_fabric_separates_pulse_from_the_cpu_bounce() {
    for c in all_curves()
        .iter()
        .filter(|c| !c.label.contains("leafspine"))
    {
        assert!(
            c.points
                .iter()
                .all(|p| p.counters.link_utilization == 0.0 && p.counters.queue_depth == 0),
            "{}: flat curves must report zero fabric metrics",
            c.label
        );
    }
    let (pulse, rpc) = (curve("pulse-leafspine-hot"), curve("RPC-leafspine-hot"));
    for c in [pulse, rpc] {
        assert!(
            c.points.iter().any(|p| p.counters.link_utilization > 0.0),
            "{}: routed curves must price real traffic on the fabric",
            c.label
        );
    }
    let mut strictly_above = false;
    for (p, r) in pulse.points.iter().zip(&rpc.points) {
        let (pu, ru) = (p.counters.link_utilization, r.counters.link_utilization);
        assert!(
            ru >= pu,
            "RPC's CPU bounce must congest the downlink at least as hard as \
             pulse's chained hops on every rung ({ru:.3} vs {pu:.3} at {} kops)",
            p.offered_kops
        );
        strictly_above |= ru > pu;
    }
    assert!(
        strictly_above,
        "some rung must separate RPC's downlink demand from pulse's"
    );
    let p = sustained("pulse-leafspine-hot").expect("pulse must sustain some load on the fabric");
    if let Some(r) = sustained("RPC-leafspine-hot") {
        assert!(
            p > r,
            "chained traversal must beat the CPU bounce on the hot fabric ({p} vs {r})"
        );
    }
}

/// SLO under failure: fault-free curves carry zero failure metrics;
/// replication 1 loses requests and rebuilds nothing; replication 2 rides
/// out the crash on every rung by failing over, and only pulse rebuilds.
#[test]
fn replication_rides_out_the_crash_and_only_pulse_rebuilds() {
    for c in all_curves().iter().filter(|c| !c.label.contains("crash")) {
        assert!(
            c.points.iter().all(|p| p.counters.failovers == 0
                && p.counters.unavailable_completions == 0
                && p.counters.rereplication_bytes == 0
                && p.counters.degraded_p99 == SimTime::ZERO),
            "{}: fault-free curves must carry zero failure metrics",
            c.label
        );
    }
    assert!(
        total("pulse-crash", |c| c.unavailable_completions) > 0,
        "losing the only copy must surface unavailable completions"
    );
    assert_eq!(
        total("pulse-crash", |c| c.rereplication_bytes),
        0,
        "nothing to rebuild from at replication 1"
    );
    for label in ["pulse-crash-replicated", "RPC-crash"] {
        assert!(
            curve(label)
                .points
                .iter()
                .all(|p| p.counters.unavailable_completions == 0),
            "{label}: two-way replication must ride out a single-node crash"
        );
        assert!(
            total(label, |c| c.failovers) > 0,
            "{label}: riding out the crash requires actual failovers"
        );
    }
    assert!(
        total("pulse-crash-replicated", |c| c.rereplication_bytes) > 0,
        "rebuilding lost redundancy must move real bytes"
    );
    assert!(
        curve("pulse-crash-replicated")
            .points
            .iter()
            .any(|p| p.counters.degraded_p99 > SimTime::ZERO),
        "the degraded window must cover some completions"
    );
    assert_eq!(
        total("RPC-crash", |c| c.rereplication_bytes),
        0,
        "the RPC baseline has no re-replication engine"
    );
}

/// ISA v2: the default group never speculates, batches or coalesces (and
/// its document carries no trailer key); pulse-spec moves the read-heavy
/// knee with batching and coalescing both firing; the 50%-update mix pays
/// a nonzero mis-speculation tax.
#[test]
fn isa_v2_moves_the_knee_and_prices_mis_speculation() {
    for c in ladder().default_curves() {
        assert!(
            c.points.iter().all(|p| p.counters.mis_speculations == 0
                && p.counters.batched_hops == 0
                && p.counters.coalesced_prefix_hops == 0),
            "{}: spec-off curves must carry zero ISA-v2 metrics",
            c.label
        );
    }
    let doc = sweep_json(ladder().default_curves());
    for key in ["mis_speculations", "batched_hops", "coalesced_prefix_hops"] {
        assert!(
            !doc.contains(&format!("\"{key}\"")),
            "the default document carries the ISA-v2 trailer key {key}"
        );
    }
    let p = sustained("pulse").expect("pulse sustains some rung");
    let s = sustained("pulse-spec").expect("pulse-spec sustains some rung");
    assert!(
        s > p,
        "ISA v2 must move the read-heavy knee: pulse-spec {s} vs pulse {p} kops"
    );
    assert!(
        total("pulse-spec", |c| c.batched_hops) > 0,
        "same-node hop batching must fuse some hops on the read-heavy curve"
    );
    assert!(
        total("pulse-spec", |c| c.coalesced_prefix_hops) > 0,
        "zipfian duplicates under load must coalesce some prefix hops"
    );
    assert!(
        total("pulse-spec-ycsb-a", |c| c.mis_speculations) > 0,
        "the 50%-update mix must invalidate some speculated windows"
    );
}
