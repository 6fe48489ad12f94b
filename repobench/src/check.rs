//! Output checks against references independent of the code under test.
//!
//! * `analyze`: noise moments must match `data/expected_moments.tsv`,
//!   measured by the `sna_fixp` scalar fixed-point simulator against the
//!   `sna_dfg` exact simulator (`repobench gen-expected` rewrites it).
//! * `optimize`: each answer's word lengths are re-scored through
//!   `Session::analyze` with `WlChoice::PerNode` and must be within the
//!   answer's `budget`.
//! * every verb: each repeat of a request line returns a byte-identical
//!   result (timings aside), checked by the caller.

use std::collections::HashMap;
use std::sync::Mutex;

use sna_core::{AnalysisRequest, Budget, EngineKind, Session, WlChoice};
use sna_dfg::Simulator;
use sna_fixp::{FixedSimulator, WlConfig};
use sna_service::Json;

use crate::workload::{sweep_pool, Rng, BITS, DESIGNS};

const EXPECTED: &str = include_str!("../data/expected_moments.tsv");

/// Scalar-simulator samples behind each expected entry: one step per
/// path on combinational designs, 48 recorded steps (after 16 warm-up
/// steps) per path on sequential ones.
const COMB_PATHS: usize = 40_000;
const SEQ_PATHS: usize = 1_000;
const SEQ_STEPS: usize = 64;
const SEQ_WARMUP: usize = 16;

/// Model tolerance on top of sampling error, per design and output:
/// `(variance_factor, mean_tol_in_stddevs)`. A predicted variance must
/// lie within `variance_factor` of the simulated one, either way.
///
/// The analytic engines are models, not ground truth. Measured over
/// every engine, bin count and word length the workloads send (9–16
/// bits), predicted/simulated variance spans: biquad 0.28–0.32, diffeq
/// 0.64–3.3 (`dfg` at 32 bins over-predicts the 18th-order feedback),
/// fir 0.55–1.3, quadratic 0.92–1.01, rgb 1.01–1.15, vec_dot 0.95–0.99.
/// Feedback and tap-correlated designs recirculate correlated rounding
/// errors the independence model misses (the repository's simulation
/// acceptance test documents the same effect at 12 bits); the factors
/// leave about 20% headroom over those spans.
///
/// `fir_taps` spans 0.02–0.72: its `range [-0.75, 0.75]` override is
/// narrower than the accumulator's true range, so the fixed-point
/// reference saturates on rare samples and those events dominate its
/// variance at 14–16 bits, while the model ignores overflow. Its factor
/// only catches gross errors. The `aux` output `sweep_cold` appends
/// (one input times several coefficients) spans 0.35–2.3, because the
/// products' rounding errors are correlated; on `rgb` its mean carries
/// a 2.1σ coefficient-rounding bias from the non-zero-mean input.
///
/// The other mean allowances are the acceptance test's: non-zero-mean
/// inputs carry a coefficient-rounding bias the gain model omits.
pub fn model_tolerance(design: &str, output: &str) -> (f64, f64) {
    if output == "aux" {
        return (3.0, 3.0);
    }
    match design {
        "biquad" => (4.0, 0.5),
        "diffeq" => (4.0, 0.5),
        "fir" => (2.5, 0.5),
        "fir_taps" => (64.0, 0.5),
        "quadratic" => (1.25, 2.5),
        "rgb" => (1.4, 1.0),
        "vec_dot" => (1.25, 0.5),
        other => panic!("no tolerance for design `{other}`"),
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Moments {
    pub mean: f64,
    pub variance: f64,
    pub samples: usize,
}

/// `(key, output) → moments`, parsed from the checked-in file.
pub struct Expected(HashMap<(String, String), Moments>);

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let mut map = HashMap::new();
        for (n, line) in EXPECTED.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("expected_moments.tsv:{}: malformed row", n + 1);
            if f.len() != 5 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            map.insert(
                (f[0].to_string(), f[1].to_string()),
                Moments {
                    mean: num(f[2])?,
                    variance: num(f[3])?,
                    samples: f[4].parse().map_err(|_| bad())?,
                },
            );
        }
        Ok(Expected(map))
    }

    /// Checks one analyze `result` against the expectation `key`.
    pub fn check_analyze(&self, key: &str, design: &str, result: &Json) -> Result<(), String> {
        let Some(Json::Arr(reports)) = result.get("reports") else {
            return Err("analyze result has no `reports`".into());
        };
        if reports.is_empty() {
            return Err("analyze result has no outputs".into());
        }
        for r in reports {
            let output = r.get("output").and_then(Json::as_str).unwrap_or("?");
            let (Some(mean), Some(var)) = (
                r.get("mean").and_then(Json::as_f64),
                r.get("variance").and_then(Json::as_f64),
            ) else {
                return Err(format!("`{output}`: missing moments"));
            };
            let Some(want) = self.0.get(&(key.to_string(), output.to_string())) else {
                return Err(format!("no expected moments for {key} `{output}`"));
            };
            moments_match(design, output, mean, var, want)
                .map_err(|e| format!("{key} `{output}`: {e}"))?;
        }
        Ok(())
    }
}

/// The documented tolerance test between a prediction and a simulated
/// reference: 5 standard errors (inflated 3× for correlated samples of
/// one trajectory) plus the design's model allowance.
pub fn moments_match(
    design: &str,
    output: &str,
    mean: f64,
    var: f64,
    want: &Moments,
) -> Result<(), String> {
    let (var_factor, mean_tol) = model_tolerance(design, output);
    let n = want.samples as f64;
    let std = want.variance.sqrt();
    let mean_bound = 5.0 * 3.0 * std / n.sqrt() + mean_tol * std;
    let off = (mean - want.mean).abs();
    if off.is_nan() || off > mean_bound {
        return Err(format!(
            "mean {mean:.4e} vs simulated {:.4e} (bound {mean_bound:.3e})",
            want.mean
        ));
    }
    let factor = var_factor * (1.0 + 5.0 * 3.0 * (2.0 / n).sqrt());
    let ratio = var / want.variance;
    if !(ratio <= factor && ratio >= 1.0 / factor) {
        return Err(format!(
            "variance {var:.4e} vs simulated {:.4e} (ratio {ratio:.3}, allowed 1/{factor:.2}..{factor:.2})",
            want.variance
        ));
    }
    Ok(())
}

/// Re-scores optimizer answers on sessions of its own.
#[derive(Default)]
pub struct Rescorer {
    sessions: HashMap<String, Session>,
}

impl Rescorer {
    /// Checks every method answer of an optimize `result`: its word
    /// lengths, re-scored through `Session::analyze` (`na` on linear
    /// designs, `dfg` at the optimizer's 64 bins otherwise), must carry
    /// no more noise power than the answer's `budget`.
    pub fn check_optimize(&mut self, source: &str, result: &Json) -> Result<(), String> {
        let budget = result
            .get("budget")
            .and_then(Json::as_f64)
            .ok_or("optimize result has no `budget`")?;
        let Some(Json::Obj(answers)) = result.get("results") else {
            return Err("optimize result has no `results`".into());
        };
        let session = self.session(source)?;
        for (method, answer) in answers {
            let Some(Json::Arr(wl)) = answer.get("word_lengths") else {
                return Err(format!("`{method}`: no word lengths"));
            };
            let w: Vec<u8> = wl
                .iter()
                .map(|v| v.as_f64().map(|x| x as u8))
                .collect::<Option<_>>()
                .ok_or("non-numeric word length")?;
            let power = rescore(session, w)?;
            if power.is_nan() || power > budget {
                return Err(format!(
                    "`{method}` answer carries noise power {power:e}, over its budget {budget:e}"
                ));
            }
        }
        Ok(())
    }

    fn session(&mut self, source: &str) -> Result<&Session, String> {
        if !self.sessions.contains_key(source) {
            let lowered = sna_lang::compile(source).map_err(|_| "source does not compile")?;
            let session =
                Session::new(lowered.dfg, lowered.input_ranges).map_err(|e| e.to_string())?;
            self.sessions.insert(source.to_string(), session);
        }
        Ok(&self.sessions[source])
    }
}

/// Total output noise power of a per-node word-length vector.
pub fn rescore(session: &Session, w: Vec<u8>) -> Result<f64, String> {
    let engine = if session.dfg().is_linear() {
        EngineKind::Na
    } else {
        EngineKind::Dfg
    };
    let report = session
        .analyze(&AnalysisRequest {
            engine,
            words: WlChoice::PerNode(w),
            bins: 64,
            include_pdf: false,
            budget: Budget::unlimited(),
        })
        .map_err(|e| format!("re-score failed: {e}"))?;
    Ok(report.reports.iter().map(|(_, r)| r.power).sum())
}

/// Whether a failure message is one of the two known optimizer defects
/// that differ from a correct answer by floating-point rounding alone:
/// a budget refused as unreachable although the best achievable noise is
/// within 4 ulps of it, or an answer over its budget by at most 4 ulps.
/// Such failures still count as failed requests; they only do not make
/// the run exit non-zero.
pub fn known_defect(message: &str) -> bool {
    let numbers: Vec<f64> = message
        .split(|c: char| c.is_whitespace() || c == ',' || c == ';')
        .filter_map(|w| w.parse::<f64>().ok())
        .collect();
    let rounding =
        |a: f64, b: f64| a > 0.0 && b > 0.0 && (a.to_bits() as i64 - b.to_bits() as i64).abs() <= 4;
    let unreachable = message.contains("unreachable; best achievable is");
    let over_budget = message.contains("over its budget");
    (unreachable || over_budget) && numbers.len() == 2 && rounding(numbers[0], numbers[1])
}

/// Replaces every `"elapsed_us":<digits>` with `"elapsed_us":0`, so two
/// answers to one request compare byte for byte.
pub fn strip_timings(text: &str) -> String {
    const KEY: &str = "\"elapsed_us\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Measures output noise moments of `source` at uniform `bits` with the
/// scalar simulators: the exact `sna_dfg::Simulator` against the
/// fixed-point `sna_fixp::FixedSimulator`, inputs uniform over their
/// declared ranges.
fn simulate_moments(source: &str, bits: u8, seed: u64) -> Vec<(String, Moments)> {
    let lowered = sna_lang::compile(source).expect("pool sources compile");
    let dfg = &lowered.dfg;
    let config = WlConfig::from_ranges(dfg, &lowered.input_ranges, bits).expect("bits fit");
    let (paths, steps, warmup) = if dfg.is_combinational() {
        (COMB_PATHS, 1, 0)
    } else {
        (SEQ_PATHS, SEQ_STEPS, SEQ_WARMUP)
    };
    let outs = dfg.outputs().len();
    // Welford accumulators per output: (count, mean, m2).
    let mut acc = vec![(0usize, 0.0f64, 0.0f64); outs];
    let mut rng = Rng::new(seed);
    let mut inputs = vec![0.0; dfg.n_inputs()];
    for _ in 0..paths {
        let mut exact = Simulator::new(dfg);
        let mut fixed = FixedSimulator::new(dfg, &config);
        for t in 0..steps {
            for (x, r) in inputs.iter_mut().zip(&lowered.input_ranges) {
                *x = r.lo() + (r.hi() - r.lo()) * rng.unit();
            }
            let e = exact.step(&inputs).expect("exact step");
            let q = fixed.step(&inputs).expect("fixed step");
            if t < warmup {
                continue;
            }
            for k in 0..outs {
                let err = q[k] - e[k];
                let (n, mean, m2) = &mut acc[k];
                *n += 1;
                let d = err - *mean;
                *mean += d / *n as f64;
                *m2 += d * (err - *mean);
            }
        }
    }
    dfg.outputs()
        .iter()
        .zip(acc)
        .map(|((name, _), (n, mean, m2))| {
            (
                name.clone(),
                Moments {
                    mean,
                    variance: m2 / (n - 1) as f64,
                    samples: n,
                },
            )
        })
        .collect()
}

/// Regenerates `data/expected_moments.tsv` (printed to stdout): every
/// design at every analyze word length, and both programs of every
/// `sweep_cold` group at the group's word length.
pub fn generate_expected(threads: usize) -> String {
    let mut jobs: Vec<(String, String, u8)> = Vec::new();
    for (name, source) in DESIGNS {
        for bits in BITS {
            jobs.push((format!("hot/{name}/{bits}"), source.to_string(), bits));
        }
    }
    for (g, group) in sweep_pool().into_iter().enumerate() {
        jobs.push((format!("sweep/{g}/base"), group.base, group.bits));
        jobs.push((format!("sweep/{g}/retune"), group.retune, group.bits));
    }
    type Row = Option<Vec<(String, Moments)>>;
    let rows: Vec<Mutex<Row>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((_, source, bits)) = jobs.get(i) else {
                    break;
                };
                let m = simulate_moments(source, *bits, 0x00C0_FFEE ^ i as u64);
                *rows[i].lock().expect("row lock") = Some(m);
            });
        }
    });
    let mut out = String::from(
        "# key\toutput\tmean\tvariance\tsamples — scalar fixed-point vs exact simulation\n\
         # (regenerate: cargo run --release --manifest-path repobench/Cargo.toml -- gen-expected)\n",
    );
    for ((key, _, _), row) in jobs.iter().zip(rows) {
        for (output, m) in row.into_inner().expect("row lock").expect("every job ran") {
            out.push_str(&format!(
                "{key}\t{output}\t{:e}\t{:e}\t{}\n",
                m.mean, m.variance, m.samples
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_defects_are_rounding_sized_only() {
        assert!(known_defect(
            "method `greedy` failed: noise budget 6.141177048415608e-9 unreachable; \
             best achievable is 6.141177048415609e-9"
        ));
        assert!(known_defect(
            "`anneal` answer carries noise power 1.615415578944195e-9, over its budget 1.6154155789441949e-9"
        ));
        assert!(!known_defect(
            "`anneal` answer carries noise power 1.7e-9, over its budget 1.6154155789441949e-9"
        ));
        assert!(!known_defect(
            "a repeat of the request returned another result"
        ));
    }

    #[test]
    fn strip_timings_zeroes_every_elapsed_field() {
        assert_eq!(
            strip_timings(r#"{"elapsed_us":123,"r":{"elapsed_us":9},"x":1}"#),
            r#"{"elapsed_us":0,"r":{"elapsed_us":0},"x":1}"#
        );
    }

    #[test]
    fn expected_file_covers_every_analyze_request() {
        let expected = Expected::load().expect("file parses");
        for w in crate::workload::Workload::ALL {
            for r in crate::workload::round(w, 3) {
                if let Some(key) = &r.expect_key {
                    assert!(
                        expected.0.keys().any(|(k, _)| k == key),
                        "no expected moments for {key}"
                    );
                }
            }
        }
    }
}
