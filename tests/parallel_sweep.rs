//! The parallel sweep harness's determinism contract, asserted end to
//! end: for any worker count, `sweep_par` must produce a `BENCH_sweep.json`
//! document byte-identical to the serial `sweep()` ladder's. Every
//! (curve, rung) pair is a closed deterministic world — its own cluster,
//! its own SplitMix64 arrival stream — so parallelism may only change
//! wall-clock, never a single emitted byte.

use pulse::baselines::RpcConfig;
use pulse::workloads::Distribution;
use pulse::{BaselineKind, PulseBuilder, YcsbWorkload};
use pulse_bench::{
    baseline_factory, rack_factory, sweep, sweep_json, sweep_par, AppKind, CurveFactory, CurveSpec,
    DEFAULT_GRANULARITY,
};

const LOADS: [f64; 3] = [50.0, 200.0, 800.0];
const SEED: u64 = 0xC0FFEE;
const REQUESTS: usize = 120;
const LABELS: [&str; 3] = ["par-pulse", "par-ycsb-a", "par-rpc"];

/// The three curves, one per factory shape: the pulse rack over
/// read-only WebService, the rack under the YCSB-A driver, and the RPC
/// baseline over the same WebService deployment.
fn factories() -> [CurveFactory; 3] {
    let rack = || {
        PulseBuilder::new()
            .nodes(2)
            .cpus(2)
            .granularity(DEFAULT_GRANULARITY)
    };
    let webservice = AppKind::WebService(Distribution::Zipfian);
    [
        Box::new(rack_factory(rack(), webservice, REQUESTS)),
        Box::new(rack_factory(
            rack(),
            AppKind::Ycsb(YcsbWorkload::A),
            REQUESTS,
        )),
        Box::new(baseline_factory(
            PulseBuilder::new()
                .nodes(2)
                .window(16)
                .granularity(DEFAULT_GRANULARITY),
            BaselineKind::Rpc(RpcConfig::rpc()),
            webservice,
            REQUESTS,
        )),
    ]
}

fn specs() -> Vec<CurveSpec> {
    LABELS
        .into_iter()
        .zip(factories())
        .map(|(label, make)| CurveSpec::new(label, &LOADS, SEED, make))
        .collect()
}

/// The serial reference: the exact ladder `sweep()` would run for the same
/// curves, serialized with the same `sweep_json`.
fn serial_reference() -> String {
    let curves: Vec<_> = LABELS
        .into_iter()
        .zip(factories())
        .map(|(label, make)| sweep(label, &LOADS, SEED, make).expect("serial curve"))
        .collect();
    sweep_json(&curves)
}

#[test]
fn parallel_sweep_json_is_byte_identical_to_serial() {
    let serial = serial_reference();
    for workers in [1usize, 2, 4] {
        let par = sweep_par(&specs(), workers).expect("parallel sweep");
        let par_json = sweep_json(&par.curves);
        assert_eq!(
            par_json, serial,
            "workers={workers}: parallel sweep JSON diverged from the serial run"
        );
        assert_eq!(par.workers, workers);
    }
}

#[test]
fn parallel_sweep_reports_timings_per_rung() {
    let par = sweep_par(&specs(), 2).expect("parallel sweep");
    assert_eq!(par.timings.len(), LABELS.len());
    for (timing, spec_label) in par.timings.iter().zip(LABELS) {
        assert_eq!(timing.label, spec_label);
        assert_eq!(timing.rung_wall_ms.len(), LOADS.len());
        assert!(timing.sim_ops > 0, "{spec_label}: no simulated ops counted");
        assert!(timing.wall_ms > 0.0);
        assert!(timing.sim_ops_per_sec() > 0.0);
    }
    assert!(par.total_wall_ms > 0.0);
}
