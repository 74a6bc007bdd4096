//! The measurements: timed fixed-rate rungs, knee probes, and the stepped
//! run that counts events, reads the layer counters and checks outputs.

use crate::knee::{self, Knee, Probe};
use crate::spans::Spans;
use crate::workloads::{Deployment, Engine, Kind, Workload, RPC_CLIENTS, SLO_P99_US};
use pulse::baselines::run_rpc_open_loop;
use pulse::mutation::sp;
use pulse::net::RequestId;
use pulse::sim::{LatencyHistogram, LatencySummary, SimTime};
use pulse::workloads::{execute_functional, ArrivalProcess};
use pulse::{AppRequest, Completion, OpenLoopReport, PhaseAttribution, PulseCluster};
use pulse_bench::{SweepPoint, GOODPUT_TOLERANCE};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Per-stage iteration budget of the functional ground truth (the same
/// budget `Runtime::execute_functional` uses).
const FUNCTIONAL_MAX_ITERS: u32 = 1 << 20;

/// The Poisson arrivals of a rung: seeded by the run's seed, so a rung at
/// one rate sees the same arrival pattern compressed to its rate.
pub fn arrivals(seed: u64, kops: f64) -> ArrivalProcess {
    ArrivalProcess::poisson(kops * 1e3, seed)
}

/// One timed fixed-rate rung, driven through `Engine::execute_open_loop`.
#[derive(Debug)]
pub struct Rung {
    /// What the engine reported.
    pub report: OpenLoopReport,
    /// Host time of the `execute_open_loop` call.
    pub host: Duration,
    /// Host time in `PulseBuilder`.
    pub build: Duration,
    /// Host time minting the request stream.
    pub mint: Duration,
}

impl Rung {
    /// Requests that failed: faulted, unavailable, or never completed.
    pub fn failed(&self) -> u64 {
        self.report.submitted - self.report.completed
    }
}

/// Builds a fresh deployment of `n` requests and runs it open-loop at
/// `kops` on the calling thread.
pub fn timed_rung(
    w: &Workload,
    seed: u64,
    kops: f64,
    n: usize,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<Rung, pulse::Error> {
    let mut d = w.kind.deploy(seed, n, false)?;
    spans.record("build", parent, d.build, 0);
    spans.record("mint", parent, d.mint, n as u64);
    let start = Instant::now();
    let report = d
        .engine
        .as_engine()
        .execute_open_loop(&d.requests, arrivals(seed, kops))?;
    let end = Instant::now();
    spans.record("execute_open_loop", parent, (start, end), n as u64);
    Ok(Rung {
        report,
        host: end - start,
        build: d.build.1 - d.build.0,
        mint: d.mint.1 - d.mint.0,
    })
}

/// Whether a rung met the SLO without a growing backlog: nothing failed
/// (a failed request counts as missing the SLO, so one failure fails the
/// rung — stricter than placing it in the p99), p99 within the SLO, and
/// goodput within `GOODPUT_TOLERANCE` of what the realized arrivals
/// allowed.
pub fn passes(report: &OpenLoopReport) -> bool {
    let point = SweepPoint::from_open_loop(report);
    report.completed == report.submitted
        && point.p99_us <= SLO_P99_US
        && point.goodput_kops >= GOODPUT_TOLERANCE * point.sustainable_kops()
}

fn knee_probe(w: &Workload, seed: u64, kops: f64) -> Result<Probe, pulse::Error> {
    let mut d = w.kind.deploy(seed, w.knee_requests, false)?;
    let report = d
        .engine
        .as_engine()
        .execute_open_loop(&d.requests, arrivals(seed, kops))?;
    Ok(Probe {
        kops,
        pass: passes(&report),
        goodput_kops: report.goodput_per_sec / 1e3,
    })
}

/// Runs one knee probe per rate, the first on the calling thread and the
/// rest on scoped threads (two rates keep a two-core machine busy).
fn probe_rates(w: &Workload, seed: u64, rates: &[f64]) -> Result<Vec<Probe>, pulse::Error> {
    std::thread::scope(|s| {
        let others: Vec<_> = rates[1..]
            .iter()
            .map(|&kops| s.spawn(move || knee_probe(w, seed, kops)))
            .collect();
        let mut out = vec![knee_probe(w, seed, rates[0])];
        out.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("knee probe thread panicked")),
        );
        out.into_iter().collect()
    })
}

/// Searches the knee of the stream at `seed`, starting near the `high`
/// rate's estimate of it (the `high` rate is frozen at three quarters of
/// the default-seed knee).
pub fn knee(w: &Workload, seed: u64, resolution: f64) -> Result<Knee, pulse::Error> {
    let mut error = None;
    let found = knee::search(w.high_kops * 4.0 / 3.0, resolution, |rates| {
        probe_rates(w, seed, rates).unwrap_or_else(|e| {
            error.get_or_insert(e);
            let fail = |&kops| Probe {
                kops,
                pass: false,
                goodput_kops: 0.0,
            };
            rates.iter().map(fail).collect()
        })
    });
    if let Some(e) = error {
        return Err(e);
    }
    found.ok_or_else(|| pulse::Error::Config(format!("{}: knee not bracketed", w.name)))
}

/// Per-layer counters of one stepped run, normalized per submitted
/// request. Counters a system does not have (the RPC baseline has no
/// accelerators, no event core) stay 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub iters_per_req: f64,
    pub insns_per_iter: f64,
    pub logic_util: f64,
    pub mem_util: f64,
    pub spec_useful_frac: f64,
    pub batched_hops_per_req: f64,
    pub mem_bytes_per_req: f64,
    pub crossings_per_req: f64,
    pub net_bytes_per_req: f64,
    pub dispatch_util: f64,
    pub cache_hit_rate: f64,
    pub coalesced_hops_per_req: f64,
    pub retries_per_req: f64,
}

/// What the output check found.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Completions checked.
    pub checked: u64,
    /// Results that disagreed with the ground truth.
    pub mismatches: u64,
    /// `ycsb-a-v2` reads that returned a bucket version older than one an
    /// update to that bucket had released before the read arrived (the
    /// known stale-rider hole under coalescing). Measured, not failed.
    pub stale_reads: u64,
}

/// A stepped run of one rung: the rack driven event by event through
/// `PulseCluster::submit_at`/`step`/`take_completions` (or the RPC
/// baseline's replay), with outputs checked against ground truth.
#[derive(Debug)]
pub struct Stepped {
    /// Latency over every completion, measured from arrival.
    pub summary: LatencySummary,
    /// Requests in the stream.
    pub attempted: u64,
    /// Faulted, unavailable, rejected at submit, never completed, or
    /// mismatched.
    pub failed: u64,
    /// `PulseCluster::step` calls (0 for the RPC baseline).
    pub steps: u64,
    /// Host time of the step loop (or the replay call).
    pub host: Duration,
    /// Layer counters.
    pub layers: Layers,
    /// The program's phase attribution, when traced.
    pub phase: Option<PhaseAttribution>,
    /// Output check.
    pub check: Check,
    /// Host µs per functional ground-truth execution.
    pub functional_us_per_req: f64,
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

fn scratch_init(req: &AppRequest, off: u16) -> u64 {
    req.traversals[0]
        .scratch_init
        .iter()
        .find(|&&(o, _)| o == off)
        .map_or(u64::MAX, |&(_, v)| v)
}

/// Builds a fresh deployment of `n` requests and runs it stepped at
/// `kops`, with the program's tracing on when `trace` is set.
pub fn stepped(
    w: &Workload,
    seed: u64,
    kops: f64,
    n: usize,
    trace: bool,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<Stepped, pulse::Error> {
    let d = w.kind.deploy(seed, n, trace)?;
    spans.record("build", parent, d.build, 0);
    spans.record("mint", parent, d.mint, n as u64);
    match d.engine {
        Engine::Pulse(_) => stepped_pulse(w.kind, d, seed, kops, spans, parent),
        Engine::Rpc(..) => stepped_rpc(d, seed, kops, spans, parent),
    }
}

/// The ground truth each request's result is checked against.
enum Truth {
    /// Read-only: the final scratchpad of the functional execution.
    Scratch(Vec<Option<Vec<u8>>>),
    /// `ycsb-a-v2`: each read's bucket version before the run (`None` for
    /// updates, which must only complete).
    Versions(Vec<Option<u64>>),
}

fn stepped_pulse(
    kind: Kind,
    d: Deployment,
    seed: u64,
    kops: f64,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<Stepped, pulse::Error> {
    let Deployment {
        engine: Engine::Pulse(mut runtime),
        requests,
        objects,
        ..
    } = d
    else {
        unreachable!("stepped_pulse takes a pulse deployment")
    };
    let n = requests.len() as u64;

    // Ground truth first: functional execution against the built memory.
    // Reads do not write, so running them before the timed stream leaves
    // the simulation untouched (the summary check against the timed run
    // proves it). Updates are never run functionally.
    let (fspan, fstart) = spans.open("functional", parent);
    let mut functional_runs = 0u64;
    let truth = if kind == Kind::YcsbAV2 {
        let mut versions = Vec::with_capacity(requests.len());
        for req in &requests {
            versions.push(if req.is_update() {
                None
            } else {
                functional_runs += 1;
                let run = runtime.execute_functional(req)?;
                run.response
                    .final_state
                    .map(|s| s.scratch_u64(sp::V0 as usize))
            });
        }
        Truth::Versions(versions)
    } else {
        let mut scratch = Vec::with_capacity(requests.len());
        for req in &requests {
            functional_runs += 1;
            let run = runtime.execute_functional(req)?;
            scratch.push(run.response.final_state.map(|s| s.scratch));
        }
        Truth::Scratch(scratch)
    };
    let functional = fstart.elapsed();
    spans.close(fspan, functional_runs);

    let mut cluster: PulseCluster = runtime.into_cluster();
    let mut arrivals = arrivals(seed, kops);
    let mut t = SimTime::ZERO;
    let mut index: HashMap<RequestId, usize> = HashMap::with_capacity(requests.len());
    let mut rejected = 0u64;
    for (i, req) in requests.iter().enumerate() {
        t += arrivals.next_gap();
        if req.validate().is_err() {
            rejected += 1;
            continue;
        }
        index.insert(cluster.submit_at(t, req.clone()), i);
    }

    let (sspan, sstart) = spans.open("step", parent);
    let mut steps = 0u64;
    let mut done: Vec<Completion> = Vec::with_capacity(requests.len());
    while cluster.step() {
        steps += 1;
        done.extend(cluster.take_completions());
    }
    let host = sstart.elapsed();
    spans.close(sspan, steps);

    let (rspan, _) = spans.open("report", parent);
    let report = cluster.report();
    let (mut insns, mut spec_hits) = (0u64, 0u64);
    for a in cluster.accelerators() {
        insns += a.stats().insns;
        spec_hits += a.stats().spec_hits;
    }
    let layers = Layers {
        iters_per_req: per(report.iterations as f64, n),
        insns_per_iter: per(insns as f64, report.iterations),
        logic_util: report.logic_util,
        mem_util: report.memory_util,
        spec_useful_frac: per(spec_hits as f64, spec_hits + report.mis_speculations),
        batched_hops_per_req: per(report.batched_hops as f64, n),
        mem_bytes_per_req: per(report.mem_bytes as f64, n),
        crossings_per_req: per(report.crossings as f64, n),
        net_bytes_per_req: per(report.net_bytes as f64, n),
        dispatch_util: report.dispatch_util,
        cache_hit_rate: report.cache_hit_rate,
        coalesced_hops_per_req: per(report.coalesced_prefix_hops as f64, n),
        retries_per_req: per(report.retries as f64, n),
    };
    spans.close(rspan, 1);

    let (cspan, _) = spans.open("check", parent);
    let mut hist = LatencyHistogram::new();
    let mut faulted = 0u64;
    let mut check = Check::default();
    // The version each completed update released, per bucket, by finish
    // time: an update that locked version `v` left `v + 2` in memory no
    // later than its completion. Coalesced updates carry their leader's
    // `v`, so they add no version the bucket never held.
    let mut released: HashMap<u64, Vec<(SimTime, u64)>> = HashMap::new();
    for c in &done {
        hist.record(c.latency());
        let req = &requests[index[&c.id]];
        if let (true, true, Some(state)) = (c.ok, req.is_update(), &c.final_state) {
            released
                .entry(scratch_init(req, sp::BUCKET))
                .or_default()
                .push((c.finished_at, state.scratch_u64(sp::V0 as usize) + 2));
        }
    }
    for list in released.values_mut() {
        list.sort_unstable();
        // Running maximum: the newest version known to be in memory by
        // each finish time.
        for i in 1..list.len() {
            list[i].1 = list[i].1.max(list[i - 1].1);
        }
    }
    for c in &done {
        if !c.ok {
            faulted += 1;
            continue;
        }
        let i = index[&c.id];
        let scratch = c.final_state.as_ref().map(|s| &s.scratch);
        check.checked += 1;
        let ok = match &truth {
            Truth::Scratch(want) => scratch == want[i].as_ref(),
            Truth::Versions(v0) => match (v0[i], &c.final_state) {
                // Updates only have to complete.
                (None, _) => true,
                (Some(initial), Some(state)) => {
                    let req = &requests[i];
                    let key = scratch_init(req, sp::KEY);
                    let newest = released
                        .get(&scratch_init(req, sp::BUCKET))
                        .and_then(|l| {
                            let k = l.partition_point(|&(f, _)| f <= c.issued_at);
                            k.checked_sub(1).map(|k| l[k].1)
                        })
                        .unwrap_or(initial);
                    if state.scratch_u64(sp::V0 as usize) < newest {
                        check.stale_reads += 1;
                    }
                    objects.get(key as usize) == Some(&state.scratch_u64(sp::VAL as usize))
                }
                (Some(_), None) => false,
            },
        };
        if !ok {
            check.mismatches += 1;
        }
    }
    spans.close(cspan, check.checked);

    let lost = n - rejected - done.len() as u64;
    Ok(Stepped {
        summary: hist.summary(),
        attempted: n,
        failed: faulted + rejected + lost + check.mismatches,
        steps,
        host,
        layers,
        phase: report.phase,
        check,
        functional_us_per_req: functional.as_secs_f64() * 1e6 / functional_runs.max(1) as f64,
    })
}

fn stepped_rpc(
    d: Deployment,
    seed: u64,
    kops: f64,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<Stepped, pulse::Error> {
    let Deployment {
        engine: Engine::Rpc(mut engine, cfg),
        requests,
        ..
    } = d
    else {
        unreachable!("stepped_rpc takes an RPC deployment")
    };
    let n = requests.len() as u64;
    for req in &requests {
        req.validate()?;
    }
    // The RPC baseline replays each request's functional execution, so
    // its answers are the ground truth by construction; the functional
    // runs are timed for the ISA-layer cost and the check covers
    // completion counts.
    let (fspan, fstart) = spans.open("functional", parent);
    for req in &requests {
        execute_functional(engine.memory_mut(), req, FUNCTIONAL_MAX_ITERS)
            .map_err(pulse::Error::from)?;
    }
    let functional = fstart.elapsed();
    spans.close(fspan, n);

    let times = arrivals(seed, kops).schedule(SimTime::ZERO, requests.len());
    let (sspan, sstart) = spans.open("replay", parent);
    let report = run_rpc_open_loop(engine.memory_mut(), &requests, RPC_CLIENTS, cfg, &times);
    let host = sstart.elapsed();
    spans.close(sspan, n);
    let layers = Layers {
        mem_bytes_per_req: per(report.mem_bytes as f64, n),
        net_bytes_per_req: per(report.net_bytes as f64, n),
        cache_hit_rate: report.cache_hit_rate,
        ..Layers::default()
    };
    Ok(Stepped {
        summary: report.latency,
        attempted: n,
        failed: n - report.completed,
        steps: 0,
        host,
        layers,
        phase: report.phase,
        check: Check {
            checked: report.completed,
            ..Check::default()
        },
        functional_us_per_req: functional.as_secs_f64() * 1e6 / n.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn two_runs_at_one_seed_give_identical_simulated_metrics() {
        for w in &WORKLOADS {
            let n = 300;
            let w = Workload {
                rung_requests: n,
                knee_requests: n,
                ..*w
            };
            let mut spans = Spans::new(false);
            let a = timed_rung(&w, 7, w.high_kops, n, &mut spans, None).unwrap();
            let b = timed_rung(&w, 7, w.high_kops, n, &mut spans, None).unwrap();
            assert_eq!(a.report.latency, b.report.latency, "{}", w.name);
            assert_eq!(
                a.report.goodput_per_sec, b.report.goodput_per_sec,
                "{}",
                w.name
            );
            assert_eq!(a.failed(), 0, "{}", w.name);

            let plain = stepped(&w, 7, w.high_kops, n, false, &mut spans, None).unwrap();
            let traced = stepped(&w, 7, w.high_kops, n, true, &mut spans, None).unwrap();
            assert_eq!(
                plain.summary, a.report.latency,
                "{}: stepped vs timed",
                w.name
            );
            assert_eq!(
                traced.summary, plain.summary,
                "{}: traced vs untraced",
                w.name
            );
            assert_eq!(traced.steps, plain.steps, "{}", w.name);
            assert_eq!((plain.failed, plain.check.mismatches), (0, 0), "{}", w.name);
            assert!(
                traced.phase.is_some() && plain.phase.is_none(),
                "{}",
                w.name
            );

            let k1 = knee(&w, 7, 0.05).unwrap();
            let k2 = knee(&w, 7, 0.05).unwrap();
            assert_eq!(k1.pass, k2.pass, "{}", w.name);
        }
    }
}
