//! Metric names and units, in the order the benchmark prints them. The
//! same names appear in `BENCHMARK.json`; a test keeps the two in step.

use pulse::Phase;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed with `--trace 0`. The latency metrics are
/// the exact mean at both rates and the p99 at the `high` rate: the
/// program's latency histogram quantizes percentiles to 1/64 of an octave,
/// which pins p50 and the low-rate p99 of the RPC baseline and of BTrDB to
/// one value on every seed.
pub const END_TO_END: [Metric; 7] = [
    m("knee_kops", "kops"),
    m("mean_us.low", "us"),
    m("mean_us.high", "us"),
    m("p99_us.high", "us"),
    m("host_us_per_req", "us"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// The phases whose simulated time the traced run reports.
pub const PHASES_REPORTED: [Phase; 8] = [
    Phase::Queued,
    Phase::Dispatch,
    Phase::WireHop,
    Phase::AccelCompute,
    Phase::MemTrip,
    Phase::CacheHit,
    Phase::Retry,
    Phase::SpecSquash,
];

/// Per-layer metrics, printed with `--trace 1`, in the order
/// `per_layer` in `main.rs` computes them.
pub const PER_LAYER: [Metric; 35] = [
    m("core.events_per_req", "count"),
    m("core.ns_per_event", "ns"),
    m("setup.build_ms", "ms"),
    m("setup.mint_us_per_req", "us"),
    m("isa.functional_us_per_req", "us"),
    m("accel.iters_per_req", "count"),
    m("accel.insns_per_iter", "count"),
    m("accel.logic_util", "frac"),
    m("accel.mem_util", "frac"),
    m("accel.spec_useful_frac", "frac"),
    m("accel.batched_hops_per_req", "count"),
    m("mem.bytes_per_req", "B"),
    m("net.crossings_per_req", "count"),
    m("net.bytes_per_req", "B"),
    m("frontend.dispatch_util", "frac"),
    m("frontend.cache_hit_rate", "frac"),
    m("frontend.coalesced_hops_per_req", "count"),
    m("mutation.retries_per_req", "count"),
    m("trace.overhead_frac", "frac"),
    m("phase.queued.mean_us", "us"),
    m("phase.queued.p99_us", "us"),
    m("phase.dispatch.mean_us", "us"),
    m("phase.dispatch.p99_us", "us"),
    m("phase.wire.mean_us", "us"),
    m("phase.wire.p99_us", "us"),
    m("phase.accel.mean_us", "us"),
    m("phase.accel.p99_us", "us"),
    m("phase.mem.mean_us", "us"),
    m("phase.mem.p99_us", "us"),
    m("phase.cache_hit.mean_us", "us"),
    m("phase.cache_hit.p99_us", "us"),
    m("phase.retry.mean_us", "us"),
    m("phase.retry.p99_us", "us"),
    m("phase.spec_squash.mean_us", "us"),
    m("phase.spec_squash.p99_us", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<Metric> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for metric in &all {
            assert!(well_formed(metric.name), "bad metric name {}", metric.name);
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                metric.unit
            );
        }
        let mut names: Vec<_> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn phase_metrics_follow_the_phase_keys() {
        for (i, p) in PHASES_REPORTED.iter().enumerate() {
            let mean = PER_LAYER[PER_LAYER.len() - 16 + 2 * i].name;
            let p99 = PER_LAYER[PER_LAYER.len() - 15 + 2 * i].name;
            assert_eq!(mean, format!("phase.{}.mean_us", p.key()));
            assert_eq!(p99, format!("phase.{}.p99_us", p.key()));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = include_str!("../../BENCHMARK.json");
        let declared = doc.matches("\"name\"").count();
        let ours = END_TO_END.len() + PER_LAYER.len() + crate::workloads::WORKLOADS.len();
        assert_eq!(declared, ours, "BENCHMARK.json and the benchmark disagree");
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                metric.name, metric.unit
            );
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(
                doc.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
    }
}
