//! Engine-level pin of the histogram engines' answers.
//!
//! Histogram sums are computed by evaluating the sum's CDF at the output
//! bin edges rather than by depositing bin pairs one at a time.  The two
//! describe the same distribution but round differently, so the analysis
//! answers move by rounding.  `data/engine_pin.tsv` holds the answers of
//! the pairwise deposit for every shipped example × {auto, dfg, symbolic}
//! × bins {32, 64, 128} × word lengths {10, 14}; this suite asserts the
//! current engines stay within these tolerances of it:
//!
//! * mean: `|Δ| ≤ 1e-12·σ + 1e-14·|mean|`;
//! * variance: `|Δ| ≤ 1e-12·variance`;
//! * `credible95` ends: `|Δ| ≤ 1e-9` output bin widths;
//! * support: never narrower, and each end at most one output bin wider.
//!
//! The fixture was written by the pairwise-deposit code with
//! `cargo test -p sna-service --test engine_pin -- --ignored`, which
//! rewrites it from whatever code it runs on.

use std::path::PathBuf;

use sna_core::EngineKind;
use sna_service::exec::{self, AnalyzeParams};
use sna_service::CompileCache;

const EXAMPLES: [&str; 7] = [
    "biquad.sna",
    "diffeq.sna",
    "fir.sna",
    "fir_taps.sna",
    "quadratic.sna",
    "rgb.sna",
    "vec_dot.sna",
];
const ENGINES: [EngineKind; 3] = [EngineKind::Auto, EngineKind::Dfg, EngineKind::Symbolic];
const BINS: [usize; 3] = [32, 64, 128];
const BITS: [u8; 2] = [10, 14];

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// One fixture row per output, tab-separated.
fn rows() -> Vec<String> {
    let cache = CompileCache::new();
    let mut rows = Vec::new();
    for file in EXAMPLES {
        let path = manifest_path("../../examples").join(file);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let (entry, _) = cache.get_or_compile(&source).unwrap();
        for engine in ENGINES {
            for bins in BINS {
                for bits in BITS {
                    let key = format!("{file}\t{}\t{bins}\t{bits}", engine.name());
                    let reports = exec::analyze(&entry, &AnalyzeParams { engine, bits, bins })
                        .unwrap_or_else(|e| panic!("{key}: {e}"));
                    for (name, r) in reports {
                        let (c_lo, c_hi) = r.credible_interval(0.95);
                        let w = r.histogram.as_ref().map_or(0.0, |h| h.grid().bin_width());
                        rows.push(format!(
                            "{key}\t{name}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}",
                            r.mean, r.variance, r.support.0, r.support.1, c_lo, c_hi, w
                        ));
                    }
                }
            }
        }
    }
    rows
}

#[test]
#[ignore = "rewrites the fixture from the code under test"]
fn regenerate_engine_pin_fixture() {
    let mut text = rows().join("\n");
    text.push('\n');
    std::fs::write(manifest_path("tests/data/engine_pin.tsv"), text).unwrap();
}

fn num(field: &str) -> f64 {
    field
        .parse()
        .unwrap_or_else(|e| panic!("bad number `{field}`: {e}"))
}

#[test]
fn histogram_engines_match_the_pairwise_pin() {
    let fixture = std::fs::read_to_string(manifest_path("tests/data/engine_pin.tsv")).unwrap();
    let pinned: Vec<&str> = fixture.lines().collect();
    let current = rows();
    assert_eq!(current.len(), pinned.len(), "row count changed");
    for (now, pin) in current.iter().zip(pinned) {
        let (a, b): (Vec<&str>, Vec<&str>) = (now.split('\t').collect(), pin.split('\t').collect());
        assert_eq!(a[..5], b[..5], "row key changed:\n  now {now}\n  pin {pin}");
        let [mean, var, s_lo, s_hi, c_lo, c_hi, w] = [5, 6, 7, 8, 9, 10, 11].map(|i| num(a[i]));
        let [p_mean, p_var, p_lo, p_hi, p_clo, p_chi, p_w] =
            [5, 6, 7, 8, 9, 10, 11].map(|i| num(b[i]));
        let ctx = format!("\n  now {now}\n  pin {pin}");
        assert_eq!(w, p_w, "output grid changed{ctx}");
        let sd = p_var.sqrt();
        assert!(
            (mean - p_mean).abs() <= 1e-12 * sd + 1e-14 * p_mean.abs(),
            "mean{ctx}"
        );
        assert!((var - p_var).abs() <= 1e-12 * p_var, "variance{ctx}");
        assert!(
            (c_lo - p_clo).abs() <= 1e-9 * w && (c_hi - p_chi).abs() <= 1e-9 * w,
            "credible95{ctx}"
        );
        // Support: never narrower, at most one bin wider (a hair of
        // relative slack for the bin-edge arithmetic itself).
        let hair = 1e-9 * w;
        assert!(
            s_lo <= p_lo + hair && s_hi >= p_hi - hair,
            "support narrower{ctx}"
        );
        assert!(
            s_lo >= p_lo - w - hair && s_hi <= p_hi + w + hair,
            "support more than one bin wider{ctx}"
        );
    }
}
