//! The repo benchmark: one command that runs one named workload under a
//! seed, checks the program's outputs, and prints every metric by name
//! with its unit. See `perfbench/README.md` for the workloads, the
//! metrics, and which numbers are simulated time and which host time.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ws-read --seed 42 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics under `--trace 0` and the per-layer metrics
//! under `--trace 1`. The exit code is nonzero when a check failed.

mod knee;
mod measure;
mod metrics;
mod spans;
mod workloads;

use measure::{Rung, Stepped};
use metrics::{Metric, END_TO_END, PER_LAYER};
use pulse::sim::LatencySummary;
use pulse::trace::PHASES;
use pulse::Phase;
use spans::Spans;
use std::time::{Duration, Instant};
use workloads::{Workload, DEFAULT_SEED, HELDOUT_SEED, SLO_P99_US, STREAMS};

/// Knee resolution: the bracket is narrowed until the lowest failing rate
/// is within this share of the highest passing one.
const KNEE_RESOLUTION: f64 = 0.01;
/// Threads the knee probes run on (the timed rungs run on one).
const KNEE_THREADS: usize = 2;
/// Untraced/traced stepped-run pairs a traced run times.
const TRACE_PAIRS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The source revision, when the benchmark runs inside a git checkout.
fn revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The process's peak resident set, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn us(t: pulse::sim::SimTime) -> f64 {
    t.as_micros_f64()
}

/// One pass of the timed phase: stream `stream`'s `low` rung, then its
/// `high` rung.
struct Rep {
    stream: usize,
    low: Rung,
    high: Rung,
}

impl Rep {
    fn host_us_per_req(&self) -> f64 {
        let n = self.low.report.submitted + self.high.report.submitted;
        (self.low.host + self.high.host).as_secs_f64() * 1e6 / n as f64
    }

    fn setup(&self) -> Duration {
        self.low.build + self.low.mint + self.high.build + self.high.mint
    }
}

/// Runs the timed phase: passes over the workload's streams in turn, each
/// pass a fresh `low` and a fresh `high` rung, until `seconds` of host
/// time have passed and every stream has run at least once.
fn timed_phase(args: &Args, spans: &mut Spans) -> Result<Vec<Rep>, pulse::Error> {
    let w = args.workload;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    while reps.len() < STREAMS || Instant::now() < deadline {
        let stream = reps.len() % STREAMS;
        let seed = workloads::stream_seed(args.seed, stream);
        let (rep_span, _) = spans.open("timed.pass", None);
        let low = measure::timed_rung(w, seed, w.low_kops, w.rung_requests, spans, rep_span)?;
        let high = measure::timed_rung(w, seed, w.high_kops, w.rung_requests, spans, rep_span)?;
        spans.close(rep_span, 2 * w.rung_requests as u64);
        reps.push(Rep { stream, low, high });
    }
    Ok(reps)
}

fn print_rung(name: &str, stream: usize, kops: f64, s: &LatencySummary, failed: u64) {
    println!(
        "rung {name:<4} {kops:>7.1} kops offered, stream {stream}: n={} p50={:.3} us p99={:.3} us mean={:.3} us failed={failed}",
        s.count,
        us(s.p50),
        us(s.p99),
        us(s.mean)
    );
}

fn print_check(label: &str, st: &Stepped) {
    println!(
        "check ({label}): {} completions checked, {} mismatches, {} failed of {}, {} stale reads",
        st.check.checked, st.check.mismatches, st.failed, st.attempted, st.check.stale_reads
    );
}

/// Runs the workload; returns whether every check passed.
fn run(args: &Args) -> Result<bool, pulse::Error> {
    let w = args.workload;
    let provenance = format!(
        "{{\"revision\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"default_seed\":{DEFAULT_SEED},\
         \"heldout_seed\":{HELDOUT_SEED},\"seconds\":{},\"trace\":{},\"config\":\"{}\",\
         \"low_kops\":{},\"high_kops\":{},\"rung_requests\":{},\"streams\":{},\"knee_requests\":{},\
         \"knee_threads\":{KNEE_THREADS},\"timed_threads\":1,\"available_parallelism\":{},\
         \"slo_p99_us\":{SLO_P99_US}}}",
        revision(),
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        w.kind.describe(),
        w.low_kops,
        w.high_kops,
        w.rung_requests,
        STREAMS,
        w.knee_requests,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("provenance: {provenance}");
    let mut spans = Spans::new(args.trace);
    let mut problems: Vec<String> = Vec::new();

    let reps = timed_phase(args, &mut spans)?;
    // The first pass of each stream carries its simulated results; every
    // later pass of that stream must reproduce them exactly.
    let firsts = &reps[..STREAMS];
    for rep in firsts {
        let s = rep.stream;
        print_rung(
            "low",
            s,
            w.low_kops,
            &rep.low.report.latency,
            rep.low.failed(),
        );
        print_rung(
            "high",
            s,
            w.high_kops,
            &rep.high.report.latency,
            rep.high.failed(),
        );
    }
    for (i, rep) in reps.iter().enumerate().skip(STREAMS) {
        let first = &firsts[rep.stream];
        if rep.low.report.latency != first.low.report.latency
            || rep.high.report.latency != first.high.report.latency
        {
            problems.push(format!(
                "timed pass {i} differs from stream {}'s first",
                rep.stream
            ));
        }
    }
    let across_streams =
        |f: &dyn Fn(&Rep) -> pulse::sim::SimTime| median(firsts.iter().map(|r| us(f(r))).collect());
    let host_us = median(reps.iter().map(Rep::host_us_per_req).collect());
    let setup_s = median(reps.iter().map(|r| r.setup().as_secs_f64()).collect());
    println!(
        "timed: {} passes over {} streams; host {:.3} us/request (median), setup {:.4} s (median)",
        reps.len(),
        STREAMS,
        host_us,
        setup_s
    );

    // The stepped run of the high rung: counts events, reads the layer
    // counters, and checks every output. Its latency must equal the timed
    // run's, so the check covers the timed program.
    let timed_high = firsts[0].high.report.latency;
    let (root, _) = spans.open("stepped.untraced", None);
    let plain = measure::stepped(
        w,
        args.seed,
        w.high_kops,
        w.rung_requests,
        false,
        &mut spans,
        root,
    )?;
    spans.close(root, plain.attempted);
    if plain.summary != timed_high {
        problems.push("stepped run latency differs from the timed run".into());
    }
    let traced = if args.trace {
        // Untraced and traced stepped runs alternate, so warm-up and
        // drift land on both sides of the tracing overhead.
        let mut plain_host = vec![plain.host.as_secs_f64()];
        let mut traced_host = Vec::new();
        let mut traced = None;
        for pair in 0..TRACE_PAIRS {
            if pair > 0 {
                let (root, _) = spans.open("stepped.untraced", None);
                let again = measure::stepped(
                    w,
                    args.seed,
                    w.high_kops,
                    w.rung_requests,
                    false,
                    &mut spans,
                    root,
                )?;
                spans.close(root, again.attempted);
                if again.summary != plain.summary {
                    problems.push("stepped runs at one seed differ".into());
                }
                plain_host.push(again.host.as_secs_f64());
            }
            let (root, _) = spans.open("stepped.traced", None);
            let t = measure::stepped(
                w,
                args.seed,
                w.high_kops,
                w.rung_requests,
                true,
                &mut spans,
                root,
            )?;
            spans.close(root, t.attempted);
            if t.summary != plain.summary {
                problems.push("tracing changed the simulated latency".into());
            }
            traced_host.push(t.host.as_secs_f64());
            traced.get_or_insert(t);
        }
        let traced = traced.expect("at least one traced run");
        match &traced.phase {
            None => problems.push("traced run carries no phase attribution".into()),
            Some(p) => {
                let sum: u64 = p.mean.iter().map(|t| t.as_picos()).sum();
                let mean = traced.summary.mean.as_picos();
                if p.count != traced.summary.count || sum > mean || mean - sum >= PHASES as u64 {
                    problems.push(format!(
                        "phase means sum to {sum} ps over {} requests, mean latency is {mean} ps over {}",
                        p.count, traced.summary.count
                    ));
                }
            }
        }
        print_check("traced run", &traced);
        Some((traced, median(plain_host), median(traced_host)))
    } else {
        print_check("stepped run", &plain);
        None
    };
    let checked = traced.as_ref().map_or(&plain, |t| &t.0);
    if checked.check.mismatches > 0 {
        problems.push(format!("{} outputs mismatched", checked.check.mismatches));
    }

    let attempted: u64 = reps
        .iter()
        .map(|r| r.low.report.submitted + r.high.report.submitted)
        .sum::<u64>()
        + checked.attempted;
    let failed: u64 = reps
        .iter()
        .map(|r| r.low.failed() + r.high.failed())
        .sum::<u64>()
        + checked.failed;
    println!(
        "failed_frac = {} ({failed} of {attempted} requests across the measured rungs)",
        failed as f64 / attempted as f64
    );

    let values: Vec<(Metric, f64)> = if let Some((traced, plain_s, traced_s)) = &traced {
        per_layer(w, &reps, &plain, traced, *plain_s, *traced_s)
    } else {
        // The memory high-water mark of the single-threaded timed and
        // stepped runs; the knee search's concurrent probes would make it
        // depend on thread timing.
        let rss =
            peak_rss_mb().ok_or_else(|| pulse::Error::Config("no /proc/self/status".into()))?;
        // The knee search runs last, on two threads, so the timed rungs and
        // the set-up they time run in a process no other thread has used.
        let knee_kops = knee_over_streams(args)?;
        END_TO_END
            .iter()
            .zip([
                knee_kops,
                across_streams(&|r| r.low.report.latency.mean),
                across_streams(&|r| r.high.report.latency.mean),
                across_streams(&|r| r.high.report.latency.p99),
                host_us,
                setup_s,
                rss,
            ])
            .map(|(m, v)| (*m, v))
            .collect()
    };
    for (m, v) in &values {
        println!("metric {} = {v} {}", m.name, m.unit);
        if !v.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let metrics_json: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let metrics_json = format!("{{{}}}", metrics_json.join(", "));
    write_results(args, &provenance, &metrics_json, &spans, checked);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    );
    Ok(correct)
}

/// The median over the workload's streams of each stream's knee.
fn knee_over_streams(args: &Args) -> Result<f64, pulse::Error> {
    let w = args.workload;
    let mut knees = Vec::with_capacity(STREAMS);
    for stream in 0..STREAMS {
        let k = measure::knee(
            w,
            workloads::stream_seed(args.seed, stream),
            KNEE_RESOLUTION,
        )?;
        println!(
            "knee, stream {stream}: {:.3} kops goodput at {:.3} kops offered; {:.3} kops failed \
             (resolution {}%, {} probes of {} requests)",
            k.pass.goodput_kops,
            k.pass.kops,
            k.fail_kops,
            KNEE_RESOLUTION * 100.0,
            k.probes.len(),
            w.knee_requests
        );
        knees.push(k.pass.goodput_kops);
    }
    Ok(median(knees))
}

/// The per-layer metrics: counters from the first untraced stepped run,
/// host times as medians (`plain_s` and `traced_s` are the median host
/// seconds of the untraced and traced step loops).
fn per_layer(
    w: &Workload,
    reps: &[Rep],
    plain: &Stepped,
    traced: &Stepped,
    plain_s: f64,
    traced_s: f64,
) -> Vec<(Metric, f64)> {
    let n = w.rung_requests as f64;
    let build_ms = median(
        reps.iter()
            .map(|r| (r.low.build + r.high.build).as_secs_f64() * 1e3 / 2.0)
            .collect(),
    );
    let mint_us = median(
        reps.iter()
            .map(|r| (r.low.mint + r.high.mint).as_secs_f64() * 1e6 / (2.0 * n))
            .collect(),
    );
    let l = &plain.layers;
    let phase = traced.phase.as_ref();
    let phase_of = |p: Phase, p99: bool| {
        phase.map_or(0.0, |a| us(if p99 { a.p99_of(p) } else { a.mean_of(p) }))
    };
    let mut values = vec![
        plain.steps as f64 / n,
        if plain.steps == 0 {
            0.0
        } else {
            plain_s * 1e9 / plain.steps as f64
        },
        build_ms,
        mint_us,
        plain.functional_us_per_req,
        l.iters_per_req,
        l.insns_per_iter,
        l.logic_util,
        l.mem_util,
        l.spec_useful_frac,
        l.batched_hops_per_req,
        l.mem_bytes_per_req,
        l.crossings_per_req,
        l.net_bytes_per_req,
        l.dispatch_util,
        l.cache_hit_rate,
        l.coalesced_hops_per_req,
        l.retries_per_req,
        traced_s / plain_s - 1.0,
    ];
    for p in metrics::PHASES_REPORTED {
        values.push(phase_of(p, false));
        values.push(phase_of(p, true));
    }
    PER_LAYER.iter().copied().zip(values).collect()
}

/// Writes the run's record — provenance, metrics, the output check of the
/// checked stepped run (with its stale-read count), and (traced runs) the
/// host-time spans plus the program's phase attribution — under
/// `perfbench/results/`. A failure to write is reported, not fatal.
fn write_results(
    args: &Args,
    provenance: &str,
    metrics_json: &str,
    spans: &Spans,
    checked: &Stepped,
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name, args.seed, args.trace as u8
    ));
    let check = format!(
        "{{\"checked\":{},\"mismatches\":{},\"stale_reads\":{},\"failed\":{},\"attempted\":{}}}",
        checked.check.checked,
        checked.check.mismatches,
        checked.check.stale_reads,
        checked.failed,
        checked.attempted
    );
    let phase = checked.phase.as_ref().map_or("null".into(), |a| {
        let fields: Vec<String> = Phase::ALL
            .into_iter()
            .map(|p| {
                format!(
                    "\"{}\":{{\"mean_us\":{:?},\"p99_us\":{:?}}}",
                    p.key(),
                    us(a.mean_of(p)),
                    us(a.p99_of(p))
                )
            })
            .collect();
        format!("{{\"count\":{},{}}}", a.count, fields.join(","))
    });
    let doc = format!(
        "{{\"provenance\":{provenance},\"metrics\":{metrics_json},\"check\":{check},\
         \"phase\":{phase},\"traceEvents\":[{}]}}\n",
        spans.trace_events().join(",")
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, doc)) {
        println!("results not written to {}: {e}", file.display());
    }
}
