//! Differential test of the histogram sum kernel against the pairwise
//! deposit it replaced.
//!
//! `Histogram::add_with`/`sub_with` evaluate the closed-form CDF of the
//! deposited sum at the output bin edges.  The oracle below is the
//! original `O(n₁·n₂)` loop: every pair of operand bins deposits its mass
//! `p_a · p_b` into the output grid, as a trapezoid (`Exact`) or as a
//! uniform block (`Uniform`).  Both describe the same distribution, so
//! they may differ only by rounding:
//!
//! * `|Δp_k| ≤ C·κ·ε` per output bin, with `κ = max |operand endpoint| /
//!   output bin width` (the absolute positions the oracle rounds);
//! * the kernel's `effective_support(0.0)` is never narrower than the
//!   oracle's and at most one output bin wider on each side;
//! * every mass is non-negative and bins outside the reach of the
//!   operands' nonzero bins are exactly zero.

use sna_hist::{DepositPolicy, Grid, HistError, Histogram, OpOptions};

/// Bound on `|Δp_k| / (κ·ε)`.
const C: f64 = 64.0;

// ----------------------------------------------------------------------
// The pairwise oracle
// ----------------------------------------------------------------------

/// Deposits mass through a CDF defined on `[lo, hi]` (relative CDF values:
/// `cdf(lo) = 0`, `cdf(hi) = 1`); out-of-grid mass clamps to the boundary
/// bins.
fn deposit_cdf(
    grid: &Grid,
    masses: &mut [f64],
    lo: f64,
    hi: f64,
    mass: f64,
    cdf: impl Fn(f64) -> f64,
) {
    if hi <= lo {
        masses[grid.bin_of(lo)] += mass;
        return;
    }
    let glo = grid.lo();
    let ghi = grid.hi();
    if lo < glo {
        masses[0] += mass * cdf(glo.min(hi));
    }
    if hi > ghi {
        masses[grid.n_bins() - 1] += mass * (1.0 - cdf(ghi.max(lo)));
    }
    let start = grid.bin_of(lo.max(glo));
    let end = grid.bin_of(hi.min(ghi));
    for (i, m) in masses.iter_mut().enumerate().take(end + 1).skip(start) {
        let edge_lo = grid.bin_lo(i).max(lo);
        let edge_hi = (grid.bin_lo(i) + grid.bin_width()).min(hi);
        if edge_hi > edge_lo {
            *m += mass * (cdf(edge_hi) - cdf(edge_lo));
        }
    }
}

/// Deposits the trapezoidal distribution of `U[lo, lo+w1+w2]`, the sum of
/// two independent uniforms with widths `w1`, `w2`.
fn deposit_trapezoid(grid: &Grid, masses: &mut [f64], lo: f64, w1: f64, w2: f64, mass: f64) {
    let m = w1.min(w2);
    let big = w1.max(w2);
    let total = w1 + w2;
    if total <= 0.0 {
        masses[grid.bin_of(lo)] += mass;
        return;
    }
    let cdf = move |x: f64| -> f64 {
        let t = (x - lo).clamp(0.0, total);
        if m == 0.0 {
            return t / total;
        }
        if t <= m {
            t * t / (2.0 * w1 * w2)
        } else if t <= big {
            (2.0 * t - m) / (2.0 * big)
        } else {
            1.0 - (total - t) * (total - t) / (2.0 * w1 * w2)
        }
    };
    deposit_cdf(grid, masses, lo, lo + total, mass, cdf);
}

/// The output grid every sum uses: `opts.grid`, else the interval sum of
/// the operand supports with `out_bins` (default: the larger bin count).
fn output_grid(a: &Histogram, b: &Histogram, sign: f64, opts: &OpOptions) -> Grid {
    opts.grid.unwrap_or_else(|| {
        let sup = a.grid().support() + b.grid().support().scale(sign);
        let bins = opts.out_bins.unwrap_or(a.n_bins().max(b.n_bins()));
        Grid::over(sup, bins).unwrap()
    })
}

/// `a + sign·b` by depositing every operand bin pair.
///
/// The uniform deposit loses every pair's mass when operand bins are
/// narrower than an ulp of their position (bin intervals collapse to
/// points that overlap nothing); that is the `Err`.
fn pairwise(
    a: &Histogram,
    b: &Histogram,
    sign: f64,
    opts: &OpOptions,
) -> Result<Histogram, HistError> {
    let grid = output_grid(a, b, sign, opts);
    match opts.deposit {
        DepositPolicy::Exact => {
            let (w1, w2) = (a.grid().bin_width(), b.grid().bin_width());
            let mut masses = vec![0.0; grid.n_bins()];
            for (ia, pa) in a.bins() {
                for (ib, pb) in b.bins() {
                    let mass = pa * pb;
                    if mass == 0.0 {
                        continue;
                    }
                    let lo = ia.lo() + ib.scale(sign).lo();
                    deposit_trapezoid(&grid, &mut masses, lo, w1, w2, mass);
                }
            }
            Histogram::from_masses(grid, masses)
        }
        _ => {
            let pairs = a
                .bins()
                .flat_map(|(ia, pa)| b.bins().map(move |(ib, pb)| (ia + ib.scale(sign), pa * pb)));
            Histogram::from_interval_masses(grid, pairs)
        }
    }
}

// ----------------------------------------------------------------------
// Random operands
// ----------------------------------------------------------------------

/// SplitMix64: a small deterministic generator, so a failure names a case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A bin count in `1..=256`, log-uniform so small counts are common.
    fn bins(&mut self) -> usize {
        (2f64.powf(8.0 * self.unit()).round() as usize).clamp(1, 256)
    }
}

/// A random histogram: unequal widths across calls, supports near or far
/// from zero or ulp-thin, with zero-mass runs at either end and inside.
fn operand(rng: &mut Rng) -> Histogram {
    let bins = rng.bins();
    let (lo, hi) = match rng.below(6) {
        // An LTI degenerate-source spike: mean ± (1e-18 + |mean|·1e-15).
        0 => {
            let mean = if rng.below(2) == 0 {
                0.0
            } else {
                (rng.unit() - 0.5) * 1e-3
            };
            let eps = 1e-18 + mean.abs() * 1e-15;
            (mean - eps, mean + eps)
        }
        // Far from zero: |lo| ≫ width.
        1 => {
            let width = 10f64.powf(rng.unit() * 4.0 - 3.0);
            let lo = (rng.unit() - 0.5) * width * 10f64.powf(2.0 + rng.unit() * 4.0);
            (lo, lo + width)
        }
        _ => {
            let width = 10f64.powf(rng.unit() * 6.0 - 4.0);
            let lo = (rng.unit() - 0.7) * width * 2.0;
            (lo, lo + width)
        }
    };
    let grid = Grid::new(lo, hi, bins).unwrap();
    let mut masses: Vec<f64> = (0..bins).map(|_| rng.unit()).collect();
    if bins > 2 && rng.below(2) == 0 {
        let run = 1 + rng.below(bins / 2);
        masses[..run].iter_mut().for_each(|m| *m = 0.0);
    }
    if bins > 2 && rng.below(2) == 0 {
        let run = 1 + rng.below(bins / 2);
        masses[bins - run..].iter_mut().for_each(|m| *m = 0.0);
    }
    if bins > 4 && rng.below(2) == 0 {
        let at = rng.below(bins);
        let run = 1 + rng.below(bins / 4);
        masses[at..(at + run).min(bins)]
            .iter_mut()
            .for_each(|m| *m = 0.0);
    }
    if masses.iter().all(|&m| m == 0.0) {
        masses[rng.below(bins)] = 1.0;
    }
    Histogram::from_masses(grid, masses).unwrap()
}

/// Random options: either policy, default or explicit output bins, or a
/// forced grid that clips the sum's support (clamping) or overhangs it.
fn options(rng: &mut Rng, a: &Histogram, b: &Histogram, sign: f64) -> OpOptions {
    let deposit = if rng.below(2) == 0 {
        DepositPolicy::Exact
    } else {
        DepositPolicy::Uniform
    };
    let opts = OpOptions::default().with_deposit(deposit);
    match rng.below(4) {
        0 => opts,
        1 | 2 => opts.with_out_bins(rng.bins()),
        _ => {
            let full = output_grid(a, b, sign, &OpOptions::default());
            let span = full.hi() - full.lo();
            let lo = full.lo() + span * (rng.unit() - 0.2) * 0.6;
            let hi = full.hi() - span * (rng.unit() - 0.2) * 0.6;
            match Grid::new(lo.min(hi), lo.max(hi), rng.bins()) {
                Ok(grid) => opts.with_grid(grid),
                Err(_) => opts,
            }
        }
    }
}

/// Indices of the first and last bins with nonzero mass.
fn nonzero_span(h: &Histogram) -> (usize, usize) {
    let p = h.probs();
    (
        p.iter().position(|&m| m > 0.0).unwrap(),
        p.iter().rposition(|&m| m > 0.0).unwrap(),
    )
}

/// The interval between the first operand's first nonzero bin plus the
/// second's, and likewise for the last nonzero bins (mirrored for `-`).
fn reach(a: &Histogram, b: &Histogram, sign: f64) -> (f64, f64) {
    let bound = |h: &Histogram| {
        let (f, l) = nonzero_span(h);
        let g = h.grid();
        (g.bin_lo(f), g.bin_lo(l) + g.bin_width())
    };
    let (alo, ahi) = bound(a);
    let (blo, bhi) = bound(b);
    if sign > 0.0 {
        (alo + blo, ahi + bhi)
    } else {
        (alo - bhi, ahi - blo)
    }
}

#[test]
fn sum_kernel_matches_the_pairwise_deposit() {
    let mut rng = Rng(0x5eed_2008);
    let cases = if cfg!(debug_assertions) { 4000 } else { 20_000 };
    let (mut worst_c, mut wider, mut lost) = (0.0f64, 0usize, 0usize);
    for case in 0..cases {
        let a = operand(&mut rng);
        let b = operand(&mut rng);
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        let opts = options(&mut rng, &a, &b, sign);
        let fast = if sign > 0.0 {
            a.add_with(&b, &opts)
        } else {
            a.sub_with(&b, &opts)
        }
        .unwrap();
        let ctx = || format!("case {case}: {:?} a={a:?} b={b:?} sign={sign}", opts);
        let Ok(slow) = pairwise(&a, &b, sign, &opts) else {
            lost += 1;
            continue;
        };
        assert_eq!(fast.grid(), slow.grid(), "{}", ctx());

        // Per-bin agreement.
        let w = fast.grid().bin_width();
        let endpoint = [a.support(), b.support()]
            .iter()
            .fold(0.0f64, |m, &(lo, hi)| m.max(lo.abs()).max(hi.abs()));
        let kappa = endpoint / w;
        for (k, (&p, &q)) in fast.probs().iter().zip(slow.probs()).enumerate() {
            assert!(p >= 0.0, "negative mass {p} in bin {k}; {}", ctx());
            let c = (p - q).abs() / (kappa * f64::EPSILON);
            worst_c = worst_c.max(c);
            assert!(
                c <= C,
                "bin {k}: kernel {p:e} vs pairwise {q:e} (C = {c:.1}); {}",
                ctx()
            );
        }

        // Effective support: never narrower; at most one bin wider where
        // the output bins span many ulps of the positions (on bins a few
        // ulps wide, the oracle's own rounding moves mass by whole bins).
        let (ff, fl) = nonzero_span(&fast);
        let (sf, sl) = nonzero_span(&slow);
        assert!(ff <= sf && fl >= sl, "narrower support; {}", ctx());
        if kappa * f64::EPSILON <= 1e-6 {
            assert!(
                ff + 1 >= sf && fl <= sl + 1,
                "support two bins wider; {}",
                ctx()
            );
            if ff < sf || fl > sl {
                wider += 1;
            }
        }

        // Exactly zero outside the reach (a few ulps of slack on each
        // side for the reach's own rounding).
        let (rlo, rhi) = reach(&a, &b, sign);
        let grid = fast.grid();
        let scale = [rlo, rhi, grid.lo(), grid.hi(), a.support().0, a.support().1]
            .iter()
            .chain([b.support().0, b.support().1].iter())
            .fold(0.0f64, |m, x| m.max(x.abs()));
        let slack = 64.0 * f64::EPSILON * scale;
        let (k_lo, k_hi) = (grid.bin_of(rlo - slack), grid.bin_of(rhi + slack));
        for (k, &p) in fast.probs().iter().enumerate() {
            if k < k_lo || k > k_hi {
                assert_eq!(p, 0.0, "mass outside the reach in bin {k}; {}", ctx());
            }
        }
    }
    eprintln!(
        "{cases} pairs: worst C = {worst_c:.2}, one bin wider on {wider}, \
         {lost} lost by the pairwise uniform deposit"
    );
    assert!(lost * 100 < cases, "{lost} of {cases} cases untested");
}

#[test]
fn sum_of_point_like_operands_keeps_both_reach_edges() {
    // An LTI degenerate-source spike plus a wide uniform: the kernel's
    // window spans the whole spike, and both reach-edge bins keep mass.
    let spike = Histogram::uniform(-1e-18, 1e-18, 64).unwrap();
    let wide = Histogram::uniform(-0.5, 0.5, 64).unwrap();
    for deposit in [DepositPolicy::Exact, DepositPolicy::Uniform] {
        let opts = OpOptions::default().with_deposit(deposit);
        for s in [
            wide.add_with(&spike, &opts).unwrap(),
            spike.add_with(&wide, &opts).unwrap(),
            spike.sub_with(&wide, &opts).unwrap(),
        ] {
            let p = s.probs();
            assert!(p[0] > 0.0 && p[p.len() - 1] > 0.0, "{deposit:?}: {p:?}");
            assert!((s.mean()).abs() < 1e-12);
            assert!((s.variance() - 1.0 / 12.0).abs() < 1e-3);
        }
    }
}

#[test]
fn grid_beyond_the_sum_clamps_all_mass_into_one_boundary_bin() {
    // The random forced grids always overlap the sum; these do not.
    let a = Histogram::uniform(0.0, 1.0, 16).unwrap();
    let b = Histogram::triangular(0.0, 1.0, 8).unwrap();
    for deposit in [DepositPolicy::Exact, DepositPolicy::Uniform] {
        let opts = OpOptions::default().with_deposit(deposit);
        let above = opts.with_grid(Grid::new(5.0, 6.0, 3).unwrap());
        let below = opts.with_grid(Grid::new(-6.0, -5.0, 3).unwrap());
        assert_eq!(a.add_with(&b, &above).unwrap().probs(), &[1.0, 0.0, 0.0]);
        assert_eq!(a.sub_with(&b, &below).unwrap().probs(), &[0.0, 0.0, 1.0]);
    }
}
