//! The SLO knee search: bracket, then bisect, the offered rate at which a
//! workload stops passing its SLO.
//!
//! A probe runs one open-loop rung at an offered rate and reports whether
//! it passed (p99 within the SLO, nothing failed, and goodput kept up with
//! the arrivals). The search asks for probes two rates at a time, so the
//! caller can run them on two threads; with two probes per round the
//! bracket shrinks to a third per round (trisection) instead of a half.
//!
//! The search never reports a rate that failed: its answer is always the
//! highest passing rate below the lowest failing one, and a result that
//! contradicts the interval (a pass above a known failure, a failure below
//! a known pass) is ignored.

/// One probe's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate, kops.
    pub kops: f64,
    /// Whether the rung met the SLO without a growing backlog.
    pub pass: bool,
    /// Achieved goodput, kops.
    pub goodput_kops: f64,
}

/// What the search found.
#[derive(Debug, Clone)]
pub struct Knee {
    /// The highest offered rate that passed, kops.
    pub pass: Probe,
    /// The lowest offered rate above it that failed, kops.
    pub fail_kops: f64,
    /// Every probe run, in order.
    pub probes: Vec<Probe>,
}

/// Bracket growth factor per step.
const GROWTH: f64 = 1.25;
/// Bracketing gives up after this many rounds without a pass or a failure.
const MAX_BRACKET_ROUNDS: usize = 24;

/// Searches for the knee starting near `start_kops`, until the bracket
/// `[pass, fail]` is narrower than `resolution` (relative to the passing
/// rate). `probe` runs the rates it is given (two per call) and returns
/// one [`Probe`] per rate, in order.
///
/// Returns `None` when no rate passed or no rate failed within the
/// bracketing range (a factor of `GROWTH^48` around `start_kops`).
pub fn search(
    start_kops: f64,
    resolution: f64,
    mut probe: impl FnMut(&[f64]) -> Vec<Probe>,
) -> Option<Knee> {
    let mut lo: Option<Probe> = None;
    let mut hi: Option<f64> = None;
    let mut probes = Vec::new();
    let mut round = |rates: [f64; 2], lo: &mut Option<Probe>, hi: &mut Option<f64>| {
        let results = probe(&rates);
        for p in results.iter().filter(|p| p.pass) {
            if hi.is_none_or(|h| p.kops < h) && lo.is_none_or(|l| p.kops > l.kops) {
                *lo = Some(*p);
            }
        }
        for p in results.iter().filter(|p| !p.pass) {
            if lo.is_none_or(|l| p.kops > l.kops) && hi.is_none_or(|h| p.kops < h) {
                *hi = Some(p.kops);
            }
        }
        probes.extend(results);
    };

    let mut rounds = 0;
    while lo.is_none() || hi.is_none() {
        if rounds == MAX_BRACKET_ROUNDS {
            return None;
        }
        rounds += 1;
        let rates = match (lo, hi) {
            (None, None) => [start_kops, start_kops * GROWTH],
            (Some(l), None) => [l.kops * GROWTH, l.kops * GROWTH * GROWTH],
            (None, Some(h)) => [h / (GROWTH * GROWTH), h / GROWTH],
            (Some(_), Some(_)) => unreachable!("loop exits once both ends are known"),
        };
        round(rates, &mut lo, &mut hi);
    }
    let (mut l, mut h) = (lo.expect("bracketed"), hi.expect("bracketed"));
    while h / l.kops - 1.0 > resolution {
        let third = (h - l.kops) / 3.0;
        let (mut lo, mut hi) = (Some(l), Some(h));
        round([l.kops + third, l.kops + 2.0 * third], &mut lo, &mut hi);
        l = lo.expect("never cleared");
        h = hi.expect("never cleared");
    }
    Some(Knee {
        pass: l,
        fail_kops: h,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse::sim::SplitMix64;

    fn threshold(t: f64) -> impl FnMut(&[f64]) -> Vec<Probe> {
        move |rates| {
            rates
                .iter()
                .map(|&kops| Probe {
                    kops,
                    pass: kops <= t,
                    goodput_kops: kops,
                })
                .collect()
        }
    }

    #[test]
    fn brackets_and_bisects_a_monotone_curve_to_resolution() {
        for &(start, t) in &[
            (100.0, 1010.0),
            (1000.0, 1010.0),
            (5000.0, 37.5),
            (800.0, 800.0),
            (1.0, 1.0e4),
        ] {
            let knee = search(start, 0.01, threshold(t)).expect("bracketed");
            assert!(
                knee.pass.pass && knee.pass.kops <= t,
                "{start} {t}: {knee:?}"
            );
            assert!(knee.fail_kops > t, "{start} {t}: {knee:?}");
            assert!(knee.fail_kops / knee.pass.kops - 1.0 <= 0.01);
        }
    }

    #[test]
    fn never_returns_a_failing_rate_on_a_noisy_curve() {
        let mut rng = SplitMix64::new(7);
        for case in 0..200 {
            let t = 50.0 + rng.next_f64() * 2000.0;
            let start = 50.0 + rng.next_f64() * 2000.0;
            let mut outcomes = Vec::new();
            let mut noise = SplitMix64::new(case);
            let knee = search(start, 0.02, |rates| {
                let results: Vec<Probe> = rates
                    .iter()
                    .map(|&kops| {
                        // Near the threshold a probe may flip either way.
                        let jitter = (noise.next_f64() - 0.5) * 0.1 * t;
                        Probe {
                            kops,
                            pass: kops <= t + jitter,
                            goodput_kops: kops,
                        }
                    })
                    .collect();
                outcomes.extend(results.iter().copied());
                results
            })
            .expect("bracketed");
            assert!(knee.pass.pass, "case {case}");
            assert!(
                outcomes.iter().any(|p| p.kops == knee.pass.kops && p.pass),
                "case {case}: returned a rate no probe passed"
            );
            assert!(
                outcomes.iter().all(|p| p.kops != knee.pass.kops || p.pass),
                "case {case}: returned a rate a probe failed"
            );
            assert!(knee.fail_kops / knee.pass.kops - 1.0 <= 0.02);
        }
    }

    #[test]
    fn gives_up_when_nothing_ever_fails() {
        assert!(search(100.0, 0.01, threshold(f64::INFINITY)).is_none());
        assert!(search(100.0, 0.01, threshold(0.0)).is_none());
    }
}
