//! Histogram arithmetic (Berleant's method).
//!
//! A binary operation on two independent histograms is computed by applying
//! interval arithmetic to every pair of operand bins and depositing the
//! product mass `p_a · p_b` into the output grid.  How each partial result
//! spreads over the output bins is controlled by a [`DepositPolicy`].
//!
//! Sums and differences never visit the bin pairs one at a time: the
//! deposited pairs add up to a distribution whose CDF has a closed form,
//! so [`Histogram::add_with`] evaluates that CDF at the output bin edges
//! instead (see `SumCdf`).

use std::borrow::Cow;

use sna_interval::Interval;

use crate::histogram::deposit_uniform;
use crate::{Grid, HistError, Histogram};

/// How a partial result interval deposits its probability mass into the
/// output grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepositPolicy {
    /// Spread the mass uniformly over the result interval (the basic
    /// histogram method of the paper).  Conservative; the default.  For
    /// `+`/`-`, like [`DepositPolicy::Exact`], it costs
    /// `O(out_bins × operand bins)`, with no per-pair deposit.
    #[default]
    Uniform,
    /// Use the exact within-bin distribution of the operation where one is
    /// known (`x + y` / `x - y` of uniform bins is trapezoidal, so the sum
    /// of two histograms is the exact convolution of their
    /// piecewise-uniform densities; `x²` has a closed-form push-forward).
    /// Falls back to [`DepositPolicy::Uniform`] for operations without a
    /// closed form (multiplication, division, generic `apply_binary`).
    Exact,
    /// Put all mass into the bin containing the interval midpoint.  Produces
    /// *inner* (non-conservative) bounds; useful for comparison studies.
    Midpoint,
}

/// Options controlling a histogram operation.
///
/// # Example
///
/// ```
/// use sna_hist::{Histogram, OpOptions, DepositPolicy};
///
/// # fn main() -> Result<(), sna_hist::HistError> {
/// let a = Histogram::uniform(0.0, 1.0, 8)?;
/// let b = Histogram::uniform(0.0, 1.0, 8)?;
/// let opts = OpOptions::default().with_out_bins(32).with_deposit(DepositPolicy::Exact);
/// let s = a.add_with(&b, &opts)?;
/// assert_eq!(s.n_bins(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpOptions {
    /// Number of output bins; defaults to the larger operand bin count.
    pub out_bins: Option<usize>,
    /// Force a specific output grid (out-of-range mass clamps to boundary
    /// bins).  Overrides `out_bins`.
    pub grid: Option<Grid>,
    /// Mass deposit policy.
    pub deposit: DepositPolicy,
}

impl OpOptions {
    /// Sets the number of output bins.
    pub fn with_out_bins(mut self, bins: usize) -> Self {
        self.out_bins = Some(bins);
        self
    }

    /// Forces the output grid.
    pub fn with_grid(mut self, grid: Grid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Sets the deposit policy.
    pub fn with_deposit(mut self, deposit: DepositPolicy) -> Self {
        self.deposit = deposit;
        self
    }
}

impl Histogram {
    // ------------------------------------------------------------------
    // Binary operations
    // ------------------------------------------------------------------

    /// Sum of two independent uncertain values (exact trapezoidal deposit).
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures (degenerate output support).
    pub fn add(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.add_with(
            rhs,
            &OpOptions::default().with_deposit(DepositPolicy::Exact),
        )
    }

    /// Sum with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn add_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        match opts.deposit {
            DepositPolicy::Midpoint => self.apply_binary(rhs, |a, b| a + b, opts),
            _ => self.linear_sum(rhs, false, opts),
        }
    }

    /// Difference of two independent uncertain values.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sub(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.sub_with(
            rhs,
            &OpOptions::default().with_deposit(DepositPolicy::Exact),
        )
    }

    /// Difference with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sub_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        match opts.deposit {
            DepositPolicy::Midpoint => self.apply_binary(rhs, |a, b| a - b, opts),
            _ => self.linear_sum(rhs, true, opts),
        }
    }

    /// Product of two independent uncertain values.
    ///
    /// The deposit is uniform-within-result-interval (no closed form is used
    /// for the product of two uniforms); with narrow bins the approximation
    /// error is second-order.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn mul(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.mul_with(rhs, &OpOptions::default())
    }

    /// Product with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn mul_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        self.apply_binary(rhs, |a, b| a * b, opts)
    }

    /// Quotient of two independent uncertain values.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::DivisionByZero`] when the denominator support
    /// contains zero; otherwise propagates grid construction failures.
    pub fn div(&self, rhs: &Histogram) -> Result<Histogram, HistError> {
        self.div_with(rhs, &OpOptions::default())
    }

    /// Quotient with explicit options.
    ///
    /// # Errors
    ///
    /// Same as [`Histogram::div`].
    pub fn div_with(&self, rhs: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        let (lo, hi) = rhs.support();
        if lo <= 0.0 && 0.0 <= hi {
            return Err(HistError::DivisionByZero {
                denominator: (lo, hi),
            });
        }
        self.apply_binary(
            rhs,
            |a, b| a.checked_div(&b).expect("denominator excludes zero"),
            opts,
        )
    }

    /// Applies an arbitrary inclusion-isotonic interval operation over the
    /// Cartesian product of operand bins.
    ///
    /// The output support is `f(support_a, support_b)` unless
    /// `opts.grid` is given; `f` must therefore be inclusion-isotonic (the
    /// image of sub-boxes must lie inside the image of the full box), which
    /// holds for every interval-arithmetic primitive.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures (e.g. a constant `f` collapses
    /// the support).
    pub fn apply_binary(
        &self,
        rhs: &Histogram,
        f: impl Fn(Interval, Interval) -> Interval,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = f(self.grid().support(), rhs.grid().support());
                let bins = opts
                    .out_bins
                    .unwrap_or_else(|| self.n_bins().max(rhs.n_bins()));
                Grid::over(sup, bins)?
            }
        };
        let mut masses = vec![0.0; grid.n_bins()];
        for (ia, pa) in self.bins() {
            if pa == 0.0 {
                continue;
            }
            for (ib, pb) in rhs.bins() {
                let mass = pa * pb;
                if mass == 0.0 {
                    continue;
                }
                let out = f(ia, ib);
                match opts.deposit {
                    DepositPolicy::Midpoint => masses[grid.bin_of(out.mid())] += mass,
                    _ => deposit_uniform(&grid, &mut masses, out, mass),
                }
            }
        }
        Histogram::from_masses(grid, masses)
    }

    /// `self + rhs` (or `self - rhs` when `negate`) under the
    /// [`DepositPolicy::Exact`] or [`DepositPolicy::Uniform`] deposit: the
    /// mass of output bin `k` is `F(c_{k+1}) − F(c_k)` for the closed-form
    /// CDF `F` of the deposited sum at the bin edges `c_k`.  Mass outside
    /// the output grid clamps to the boundary bins.
    fn linear_sum(
        &self,
        rhs: &Histogram,
        negate: bool,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let sign = if negate { -1.0 } else { 1.0 };
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = self.grid().support() + rhs.grid().support().scale(sign);
                let bins = opts
                    .out_bins
                    .unwrap_or_else(|| self.n_bins().max(rhs.n_bins()));
                Grid::over(sup, bins)?
            }
        };
        let masses = sum_masses(
            &grid,
            &Operand::new(self, false),
            &Operand::new(rhs, negate),
            opts.deposit == DepositPolicy::Exact,
        );
        Histogram::from_masses(grid, masses)
    }

    // ------------------------------------------------------------------
    // Unary operations
    // ------------------------------------------------------------------

    /// Negation (exact: mirrors the grid).
    pub fn neg(&self) -> Histogram {
        let grid = Grid::new(-self.grid().hi(), -self.grid().lo(), self.n_bins())
            .expect("mirrored grid is valid");
        let probs: Vec<f64> = self.probs().iter().rev().copied().collect();
        Histogram::from_masses(grid, probs).expect("mirrored histogram is valid")
    }

    /// Multiplication by a scalar (exact: scales the grid).
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroScale`] when `k == 0`.
    pub fn scale(&self, k: f64) -> Result<Histogram, HistError> {
        if k == 0.0 {
            return Err(HistError::ZeroScale);
        }
        if !k.is_finite() {
            return Err(HistError::NonFinite { value: k });
        }
        if k < 0.0 {
            return self.neg().scale(-k);
        }
        let grid = Grid::new(self.grid().lo() * k, self.grid().hi() * k, self.n_bins())?;
        Histogram::from_masses(grid, self.probs().to_vec())
    }

    /// Translation by a scalar (exact: shifts the grid).
    ///
    /// # Errors
    ///
    /// Returns [`HistError::NonFinite`] for a non-finite shift.
    pub fn shift(&self, c: f64) -> Result<Histogram, HistError> {
        if !c.is_finite() {
            return Err(HistError::NonFinite { value: c });
        }
        let grid = Grid::new(self.grid().lo() + c, self.grid().hi() + c, self.n_bins())?;
        Histogram::from_masses(grid, self.probs().to_vec())
    }

    /// Affine image `a·x + b` (exact).
    ///
    /// # Errors
    ///
    /// Returns [`HistError::ZeroScale`] when `a == 0`.
    pub fn affine(&self, a: f64, b: f64) -> Result<Histogram, HistError> {
        self.scale(a)?.shift(b)
    }

    /// Dependent square `x²` with the exact push-forward deposit.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sqr(&self) -> Result<Histogram, HistError> {
        self.sqr_with(&OpOptions::default().with_deposit(DepositPolicy::Exact))
    }

    /// Dependent square with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn sqr_with(&self, opts: &OpOptions) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = self.grid().support().sqr();
                let bins = opts.out_bins.unwrap_or_else(|| self.n_bins());
                Grid::over(sup, bins)?
            }
        };
        let mut masses = vec![0.0; grid.n_bins()];
        for (iv, p) in self.bins() {
            if p == 0.0 {
                continue;
            }
            match opts.deposit {
                DepositPolicy::Exact => deposit_sqr(&grid, &mut masses, iv, p),
                DepositPolicy::Midpoint => masses[grid.bin_of(iv.sqr().mid())] += p,
                DepositPolicy::Uniform => deposit_uniform(&grid, &mut masses, iv.sqr(), p),
            }
        }
        Histogram::from_masses(grid, masses)
    }

    /// Dependent integer power `xⁿ`.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures; `n == 0` yields a degenerate
    /// support and therefore fails.
    pub fn powi(&self, n: u32) -> Result<Histogram, HistError> {
        match n {
            0 => Err(HistError::EmptySupport { lo: 1.0, hi: 1.0 }),
            1 => Ok(self.clone()),
            2 => self.sqr(),
            _ => self.apply_unary(|iv| iv.powi(n), &OpOptions::default()),
        }
    }

    /// Absolute value `|x|`.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn abs(&self) -> Result<Histogram, HistError> {
        let (lo, _hi) = self.support();
        if lo >= 0.0 {
            return Ok(self.clone());
        }
        self.apply_unary(|iv| iv.abs(), &OpOptions::default())
    }

    /// Reciprocal `1/x`.
    ///
    /// # Errors
    ///
    /// Returns [`HistError::DivisionByZero`] when the support contains zero.
    pub fn recip(&self) -> Result<Histogram, HistError> {
        let (lo, hi) = self.support();
        if lo <= 0.0 && 0.0 <= hi {
            return Err(HistError::DivisionByZero {
                denominator: (lo, hi),
            });
        }
        self.apply_unary(
            |iv| iv.recip().expect("support excludes zero"),
            &OpOptions::default(),
        )
    }

    /// Applies an arbitrary inclusion-isotonic unary interval operation
    /// bin-by-bin.
    ///
    /// # Errors
    ///
    /// Propagates grid construction failures.
    pub fn apply_unary(
        &self,
        f: impl Fn(Interval) -> Interval,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = f(self.grid().support());
                let bins = opts.out_bins.unwrap_or_else(|| self.n_bins());
                Grid::over(sup, bins)?
            }
        };
        let mut masses = vec![0.0; grid.n_bins()];
        for (iv, p) in self.bins() {
            if p == 0.0 {
                continue;
            }
            let out = f(iv);
            match opts.deposit {
                DepositPolicy::Midpoint => masses[grid.bin_of(out.mid())] += p,
                _ => deposit_uniform(&grid, &mut masses, out, p),
            }
        }
        Histogram::from_masses(grid, masses)
    }
}

/// Deposits mass through an arbitrary CDF defined on `[lo, hi]` (relative
/// CDF values: `cdf(lo) = 0`, `cdf(hi) = 1`).
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
    // Mass outside the grid clamps to boundary bins.
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

/// Mass kept in a reach-edge output bin whose computed mass rounds to
/// zero or below: far under any rounding error of the kernel, yet large
/// enough that products of a few such masses in later operations do not
/// underflow to zero and narrow the reported support.
const EDGE_FLOOR: f64 = f64::EPSILON * f64::EPSILON;

/// One operand of a sum: bin `i` covers `[lo + i·width, lo + (i+1)·width]`
/// and carries `probs[i]`.
struct Operand<'a> {
    hist: &'a Histogram,
    mirrored: bool,
    lo: f64,
    width: f64,
    probs: Cow<'a, [f64]>,
}

impl<'a> Operand<'a> {
    /// `h`, or its mirror image `-h` when `mirrored`.
    fn new(hist: &'a Histogram, mirrored: bool) -> Self {
        let grid = hist.grid();
        let (lo, probs) = if mirrored {
            (
                -grid.hi(),
                Cow::Owned(hist.probs().iter().rev().copied().collect()),
            )
        } else {
            (grid.lo(), Cow::Borrowed(hist.probs()))
        };
        Operand {
            hist,
            mirrored,
            lo,
            width: grid.bin_width(),
            probs,
        }
    }

    /// Bin `i` as interval arithmetic sees it (negated when mirrored).
    fn bin(&self, i: usize) -> Interval {
        if self.mirrored {
            let n = self.probs.len();
            self.hist.grid().bin_interval(n - 1 - i).scale(-1.0)
        } else {
            self.hist.grid().bin_interval(i)
        }
    }

    /// The first and the last bin that carry mass.
    fn reach(&self) -> (Interval, Interval) {
        let first = self.probs.iter().position(|&p| p > 0.0).unwrap_or(0);
        let last = self.probs.iter().rposition(|&p| p > 0.0).unwrap_or(first);
        (self.bin(first), self.bin(last))
    }
}

/// Output masses of `a + b` on `grid`, where the deposit spreads each bin
/// pair's mass over `[a_i + b_j, a_i + b_j + w_a + w_b]` either exactly
/// (the trapezoid, `exact`) or uniformly.
///
/// The reach is the hull of the result intervals of the lowest and the
/// highest pair of nonzero bins, rounded as interval arithmetic rounds
/// them, so it covers every bin a pairwise deposit could reach.  Bins
/// outside it are exactly zero, the two bins at its ends are kept
/// positive, and negative rounding residue clamps to zero.
fn sum_masses(grid: &Grid, a: &Operand<'_>, b: &Operand<'_>, exact: bool) -> Vec<f64> {
    let mut masses = vec![0.0; grid.n_bins()];
    let ((a_first, a_last), (b_first, b_last)) = (a.reach(), b.reach());
    let (lowest, highest) = (a_first + b_first, a_last + b_last);
    let span = a.width + b.width;
    let lo = lowest.lo();
    let hi = highest.hi().max(highest.lo() + span);
    let (mut k_lo, mut k_hi) = (grid.bin_of(lo), grid.bin_of(hi));
    // A bin the reach only touches at an edge receives no mass, unless
    // the extreme pair is thinner than an ulp and lands there whole.
    let resolved = |pair: Interval| pair.hi() > pair.lo() && pair.lo() + span > pair.lo();
    if k_lo < k_hi && resolved(lowest) && grid.bin_lo(k_lo) + grid.bin_width() <= lo {
        k_lo += 1;
    }
    if k_lo < k_hi && resolved(highest) && grid.bin_lo(k_hi) >= hi {
        k_hi -= 1;
    }

    // The operand with the wider bins is the outer one: its window then
    // spans at least one inner bin, so no term is a near-cancellation.
    let (outer, inner) = if a.width >= b.width { (a, b) } else { (b, a) };
    let cdf = SumCdf::new(outer, inner, exact);
    // Edge `k` sits at `u0 + k·step` in inner-bin units above
    // `outer.lo + inner.lo`.
    let u0 = (grid.lo() - outer.lo - inner.lo) / inner.width;
    let step = grid.bin_width() / inner.width;

    // No mass lies below the reach's first bin or above its last one;
    // bins 0 and n-1 also take the clamped tails.
    let mut below = 0.0;
    for (k, m) in masses.iter_mut().enumerate().take(k_hi + 1).skip(k_lo) {
        let upto = if k == k_hi {
            cdf.total
        } else {
            cdf.at(u0 + (k + 1) as f64 * step)
        };
        *m = (upto - below).max(0.0);
        below = upto;
    }
    for k in [k_lo, k_hi] {
        if masses[k] <= 0.0 {
            masses[k] = EDGE_FLOOR;
        }
    }
    masses
}

/// The CDF of the deposited sum of two histograms, `outer + inner`.
///
/// Outer bin `i` (mass `p_i`, lower edge `a_i`) spreads its share over a
/// window of width `W` against the inner operand:
///
/// `F(z) = Σ_i p_i/W · [Ψ(z − a_i) − Ψ(z − a_i − W)]`
///
/// where `Ψ` is the antiderivative of an inner CDF.  For the exact
/// (trapezoid) deposit that CDF is the inner histogram's own piecewise
/// linear one and `W` is the outer bin width; for the uniform deposit it
/// is the step CDF of the inner bins' lower edges and `W = w_a + w_b`.
/// Either way `Ψ` is piecewise quadratic on the inner grid, tabulated from
/// prefix sums, so one evaluation costs `O(1)` and one CDF value
/// `O(outer bins)`.  Outer bins whose window lies wholly above the inner
/// reach contribute `p_i · Σq` and are summed by prefix; those wholly
/// below contribute nothing and are skipped.
///
/// All positions are in inner-bin units relative to the inner grid's
/// lower edge, so supports far from zero cost no precision.
struct SumCdf<'a> {
    outer: &'a [f64],
    /// `outer_prefix[i] = Σ_{l<i} p_l`.
    outer_prefix: Vec<f64>,
    /// Outer bin width, in inner-bin units.
    pitch: f64,
    /// Window width `W`, in inner-bin units.
    window: f64,
    exact: bool,
    /// `[base, slope, curve]` of `Ψ(j + f) = base + f·(slope + f·curve)`,
    /// `0 ≤ f < 1`; the last entry (`j` = inner bin count) covers every
    /// `u` above the inner grid.
    psi: Vec<[f64; 3]>,
    inner_total: f64,
    total: f64,
}

impl<'a> SumCdf<'a> {
    fn new(outer: &'a Operand<'_>, inner: &Operand<'_>, exact: bool) -> Self {
        let mut psi = Vec::with_capacity(inner.probs.len() + 1);
        let (mut base, mut cum) = (0.0, 0.0);
        for &q in inner.probs.iter() {
            let (slope, curve) = if exact {
                (cum, 0.5 * q)
            } else {
                (cum + q, 0.0)
            };
            psi.push([base, slope, curve]);
            base += slope + curve;
            cum += q;
        }
        psi.push([base, cum, 0.0]);

        let mut outer_prefix = Vec::with_capacity(outer.probs.len() + 1);
        let mut acc = 0.0;
        outer_prefix.push(acc);
        for &p in outer.probs.iter() {
            acc += p;
            outer_prefix.push(acc);
        }
        let pitch = outer.width / inner.width;
        SumCdf {
            outer: &outer.probs,
            outer_prefix,
            pitch,
            window: if exact { pitch } else { pitch + 1.0 },
            exact,
            psi,
            inner_total: cum,
            total: acc * cum,
        }
    }

    /// `Ψ(u)` for `u` in inner-bin units.
    fn psi(&self, u: f64) -> f64 {
        if u <= 0.0 {
            return 0.0;
        }
        // The cast saturates, so far-above points land on the tail entry.
        let j = (u as usize).min(self.psi.len() - 1);
        let [base, slope, curve] = self.psi[j];
        let f = u - j as f64;
        base + f * (slope + f * curve)
    }

    /// `F` at the point `u` inner-bin units above `outer.lo + inner.lo`.
    fn at(&self, u: f64) -> f64 {
        let n_in = (self.psi.len() - 1) as f64;
        let n_out = self.outer.len();
        // Outer bin i's window is [u − i·pitch − window, u − i·pitch]: it
        // lies above the inner grid for i < full and meets it for i < meets.
        let full = floor_index((u - self.window - n_in) / self.pitch + 1.0, n_out);
        let meets = floor_index(u / self.pitch + 1.0, n_out).max(full);
        let top = |i: usize| u - i as f64 * self.pitch;
        let mut partial = 0.0;
        if self.exact {
            // The window of bin i ends where bin i+1's starts, so each Ψ
            // value serves two neighbouring terms.
            let mut upper = self.psi(top(full));
            for (i, &p) in self.outer.iter().enumerate().take(meets).skip(full) {
                let lower = self.psi(top(i + 1));
                partial += p * (upper - lower);
                upper = lower;
            }
        } else {
            for (i, &p) in self.outer.iter().enumerate().take(meets).skip(full) {
                if p != 0.0 {
                    partial += p * (self.psi(top(i)) - self.psi(top(i) - self.window));
                }
            }
        }
        self.inner_total * self.outer_prefix[full] + partial / self.window
    }
}

/// `⌊x⌋` clamped to `0..=n` (0 for NaN).
fn floor_index(x: f64, n: usize) -> usize {
    if x >= n as f64 {
        n
    } else if x > 0.0 {
        x as usize
    } else {
        0
    }
}

/// Deposits the exact push-forward of `x²` for `x` uniform on `iv`.
fn deposit_sqr(grid: &Grid, masses: &mut [f64], iv: Interval, mass: f64) {
    let (a, b) = (iv.lo(), iv.hi());
    let w = b - a;
    if w <= 0.0 {
        masses[grid.bin_of(a * a)] += mass;
        return;
    }
    // Split a sign-straddling interval at zero; each side is monotone.
    if a < 0.0 && b > 0.0 {
        let left_mass = mass * (-a) / w;
        let right_mass = mass * b / w;
        deposit_sqr_monotone(grid, masses, 0.0, -a, left_mass);
        deposit_sqr_monotone(grid, masses, 0.0, b, right_mass);
    } else if b <= 0.0 {
        deposit_sqr_monotone(grid, masses, -b, -a, mass);
    } else {
        deposit_sqr_monotone(grid, masses, a, b, mass);
    }
}

/// Push-forward of `x²` for `x` uniform on `[a, b]` with `0 <= a < b`:
/// `P(x² <= v) = (√v - a) / (b - a)`.
fn deposit_sqr_monotone(grid: &Grid, masses: &mut [f64], a: f64, b: f64, mass: f64) {
    debug_assert!(0.0 <= a && a <= b);
    if mass == 0.0 {
        return;
    }
    if b == a {
        masses[grid.bin_of(a * a)] += mass;
        return;
    }
    let cdf = move |v: f64| -> f64 { ((v.max(0.0).sqrt() - a) / (b - a)).clamp(0.0, 1.0) };
    deposit_cdf(grid, masses, a * a, b * b, mass, cdf);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn add_of_uniforms_is_triangular() {
        let a = Histogram::uniform(0.0, 1.0, 32).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 32).unwrap();
        let s = a.add(&b).unwrap();
        assert_eq!(s.support(), (0.0, 2.0));
        assert!(close(s.mean(), 1.0, 1e-9));
        // Var(U+U) = 1/12 + 1/12 = 1/6; trapezoid deposit is exact up to the
        // O(w²) uniform-within-bin requantization of the output grid.
        assert!(close(s.variance(), 1.0 / 6.0, 2e-3));
        // Peak in the middle, symmetric tails.
        assert!(s.density(1.0) > s.density(0.1));
        assert!(close(s.cdf(1.0), 0.5, 1e-9));
    }

    #[test]
    fn add_uniform_policy_overestimates_spread() {
        let a = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let exact = a.add(&b).unwrap();
        let blurred = a
            .add_with(
                &b,
                &OpOptions::default().with_deposit(DepositPolicy::Uniform),
            )
            .unwrap();
        assert!(blurred.variance() >= exact.variance());
    }

    #[test]
    fn sub_is_add_of_negation() {
        let a = Histogram::uniform(0.0, 2.0, 16).unwrap();
        let b = Histogram::uniform(0.5, 1.0, 16).unwrap();
        let d = a.sub(&b).unwrap();
        let d2 = a.add(&b.neg()).unwrap();
        assert!(close(d.mean(), d2.mean(), 1e-9));
        assert!(close(d.variance(), d2.variance(), 1e-9));
        assert_eq!(d.support(), (-1.0, 1.5));
    }

    #[test]
    fn mul_of_independent_uniforms_has_product_moments() {
        let a = Histogram::uniform(1.0, 3.0, 64).unwrap();
        let b = Histogram::uniform(2.0, 4.0, 64).unwrap();
        let p = a.mul(&b).unwrap();
        // E[ab] = E[a]E[b] = 6; independence is built into the method.
        assert!(close(p.mean(), 6.0, 2e-2));
        assert_eq!(p.support(), (2.0, 12.0));
        // Var(ab) = E[a²]E[b²] − (E[a]E[b])² for independent a, b.
        let va = 4.0 / 12.0;
        let vb = 4.0 / 12.0;
        let expected = (va + 4.0) * (vb + 9.0) - 36.0;
        assert!(close(p.variance(), expected, 0.05));
    }

    #[test]
    fn div_requires_nonzero_denominator() {
        let a = Histogram::uniform(1.0, 2.0, 8).unwrap();
        let z = Histogram::uniform(-1.0, 1.0, 8).unwrap();
        assert!(matches!(a.div(&z), Err(HistError::DivisionByZero { .. })));
        let b = Histogram::uniform(2.0, 4.0, 64).unwrap();
        let q = a.div(&b).unwrap();
        assert_eq!(q.support(), (0.25, 1.0));
        // E[1/b] = ln(2)/2 for U[2,4]; E[a] = 1.5.
        assert!(close(q.mean(), 1.5 * (2.0f64.ln() / 2.0), 1e-2));
    }

    #[test]
    fn neg_scale_shift_are_exact() {
        let h = Histogram::triangular(0.0, 2.0, 16).unwrap();
        let n = h.neg();
        assert_eq!(n.support(), (-2.0, 0.0));
        assert!(close(n.mean(), -h.mean(), 1e-12));
        let s = h.scale(-3.0).unwrap();
        assert_eq!(s.support(), (-6.0, 0.0));
        assert!(close(s.variance(), 9.0 * h.variance(), 1e-9));
        let t = h.shift(5.0).unwrap();
        assert!(close(t.mean(), h.mean() + 5.0, 1e-9));
        assert!(close(t.variance(), h.variance(), 1e-9));
        assert!(matches!(h.scale(0.0), Err(HistError::ZeroScale)));
    }

    #[test]
    fn sqr_of_unit_uniform() {
        // For x ~ U[-1,1]: E[x²] = 1/3, support [0,1], density ~ 1/(2√v).
        let x = Histogram::unit_symbol(128).unwrap();
        let s = x.sqr().unwrap();
        assert_eq!(s.support(), (0.0, 1.0));
        assert!(close(s.mean(), 1.0 / 3.0, 1e-3));
        // E[x⁴] = 1/5 ⇒ Var(x²) = 1/5 − 1/9 = 4/45.
        assert!(close(s.variance(), 4.0 / 45.0, 1e-2));
        // Density decreasing in v.
        assert!(s.density(0.05) > s.density(0.5));
    }

    #[test]
    fn sqr_beats_self_multiplication() {
        let x = Histogram::unit_symbol(32).unwrap();
        let dependent = x.sqr().unwrap();
        let independent = x.mul(&x).unwrap(); // treats the two factors as independent
        assert_eq!(dependent.support(), (0.0, 1.0));
        assert_eq!(independent.support(), (-1.0, 1.0));
    }

    #[test]
    fn powi_cases() {
        let x = Histogram::uniform(0.5, 2.0, 32).unwrap();
        assert!(x.powi(0).is_err());
        let p1 = x.powi(1).unwrap();
        assert_eq!(p1.support(), x.support());
        let p3 = x.powi(3).unwrap();
        assert_eq!(p3.support(), (0.125, 8.0));
        // E[x³] for U[0.5, 2]: (2⁴ − 0.5⁴)/(4·1.5) = 2.65625.
        assert!(close(p3.mean(), 2.65625, 0.05));
    }

    #[test]
    fn abs_folds_negative_mass() {
        let x = Histogram::uniform(-2.0, 1.0, 48).unwrap();
        let a = x.abs().unwrap();
        let (lo, hi) = a.support();
        assert!(lo >= -1e-12 && close(hi, 2.0, 1e-12));
        // E|x| for U[-2,1] = (4+1)/(2·3) = 5/6.
        assert!(close(a.mean(), 5.0 / 6.0, 2e-2));
        // Already-positive support is returned as-is.
        let p = Histogram::uniform(1.0, 2.0, 8).unwrap();
        assert_eq!(p.abs().unwrap(), p);
    }

    #[test]
    fn recip_requires_sign_definite_support() {
        let x = Histogram::uniform(-1.0, 1.0, 8).unwrap();
        assert!(x.recip().is_err());
        let y = Histogram::uniform(1.0, 2.0, 64).unwrap();
        let r = y.recip().unwrap();
        assert_eq!(r.support(), (0.5, 1.0));
        assert!(close(r.mean(), 2.0f64.ln(), 1e-2));
    }

    #[test]
    fn forced_grid_clamps_out_of_range() {
        let a = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 8).unwrap();
        let grid = Grid::new(0.5, 1.5, 4).unwrap();
        let s = a
            .add_with(&b, &OpOptions::default().with_grid(grid))
            .unwrap();
        assert!(close(s.total_mass(), 1.0, 1e-12));
        assert_eq!(s.support(), (0.5, 1.5));
        // Mass below 0.5 (= 12.5%) clamps into the first bin.
        assert!(s.prob(0) > 0.12);
    }

    #[test]
    fn midpoint_policy_gives_inner_bounds() {
        let a = Histogram::uniform(0.0, 1.0, 4).unwrap();
        let b = Histogram::uniform(0.0, 1.0, 4).unwrap();
        let opts = OpOptions::default()
            .with_deposit(DepositPolicy::Midpoint)
            .with_out_bins(16);
        let s = a.add_with(&b, &opts).unwrap();
        let (lo, hi) = s.effective_support(0.0);
        // Midpoints of extreme bin pairs are 0.25 and 1.75; the effective
        // support snaps outward to the edges of the bins containing them.
        let w = s.grid().bin_width();
        assert!(lo >= 0.25 - 1e-9);
        assert!(hi <= 1.75 + w + 1e-9);
    }

    #[test]
    fn binary_op_masses_are_conserved() {
        let a = Histogram::triangular(-1.0, 1.0, 16).unwrap();
        let b = Histogram::gaussian(0.0, 0.5, 16).unwrap();
        for op in ["add", "sub", "mul"] {
            let r = match op {
                "add" => a.add(&b).unwrap(),
                "sub" => a.sub(&b).unwrap(),
                _ => a.mul(&b).unwrap(),
            };
            assert!(close(r.total_mass(), 1.0, 1e-9), "mass lost in {op}");
        }
    }

    #[test]
    fn mean_linearity_of_add_sub() {
        let a = Histogram::triangular(0.0, 4.0, 32).unwrap();
        let b = Histogram::uniform(-1.0, 3.0, 32).unwrap();
        let s = a.add(&b).unwrap();
        assert!(close(s.mean(), a.mean() + b.mean(), 1e-9));
        let d = a.sub(&b).unwrap();
        assert!(close(d.mean(), a.mean() - b.mean(), 1e-9));
        // Independent ⇒ variances add, up to the O(w²) output-grid
        // requantization inflation (bounded by w²/6 empirically).
        let tol = d.grid().bin_width().powi(2) / 6.0 + 1e-9;
        assert!(close(s.variance(), a.variance() + b.variance(), tol));
        assert!(close(d.variance(), a.variance() + b.variance(), tol));
        // The inflation vanishes quadratically with finer output grids.
        let fine = a
            .add_with(
                &b,
                &OpOptions::default()
                    .with_deposit(DepositPolicy::Exact)
                    .with_out_bins(256),
            )
            .unwrap();
        assert!(close(fine.variance(), a.variance() + b.variance(), 2e-4));
    }
}
