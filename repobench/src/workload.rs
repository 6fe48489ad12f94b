//! Seeded workload generator: one round of request lines per workload.
//!
//! A round is a fixed list of requests replayed in order for as long as
//! a run lasts. Which requests a round holds (design, engine, bins, word
//! length, `pdf`, paths, rows) is fixed per workload, so every seed sends
//! the same mix and the cost of a round does not depend on it; the seed
//! orders the round and draws the data inside requests (simulation
//! seeds, trace samples, respellings). Every request is valid by
//! construction (see `README.md`, "Workloads").

use std::sync::Arc;

/// The shipped designs, compiled into the benchmark.
pub const DESIGNS: [(&str, &str); 7] = [
    ("biquad", include_str!("../../examples/biquad.sna")),
    ("diffeq", include_str!("../../examples/diffeq.sna")),
    ("fir", include_str!("../../examples/fir.sna")),
    ("fir_taps", include_str!("../../examples/fir_taps.sna")),
    ("quadratic", include_str!("../../examples/quadratic.sna")),
    ("rgb", include_str!("../../examples/rgb.sna")),
    ("vec_dot", include_str!("../../examples/vec_dot.sna")),
];

/// The one nonlinear design: `na`/`lti` are never sent to it.
pub const NONLINEAR: &str = "quadratic";

/// Word lengths of analyze/simulate/trace requests. `rgb` needs at least
/// 9 bits (its `+ 128` constants), so 9 is the floor for all.
pub const BITS: std::ops::RangeInclusive<u8> = 9..=16;

/// The word length of request slot `k`: slots walk the whole range.
fn slot_bits(k: usize) -> u8 {
    BITS.start() + (k % BITS.clone().count()) as u8
}

pub const HOT_ENGINES: [&str; 4] = ["na", "auto", "dfg", "symbolic"];
pub const HOT_BINS: [usize; 3] = [32, 64, 128];
pub const OPT_METHODS: [&str; 4] = ["greedy", "waterfill", "group-greedy", "anneal"];
pub const OPT_REF_BITS: [u8; 3] = [8, 12, 16];

/// `sweep_cold`: structural variants per linear design. 6 designs × 50
/// = 300 groups, more than the compile cache's 256 entries, so every
/// base program is evicted before the round comes back to it.
pub const SWEEP_VARIANTS: usize = 50;
/// Trailing delays (0..=4) of the appended `aux` output; with 50 variants
/// its terms run 1..=10.
const SWEEP_DELAYS: usize = 5;

/// `optimize_mc`: Monte-Carlo paths of the three simulate requests per
/// design, and rows of the two trace requests (`report`, `replay`).
pub const SIM_PATHS: [usize; 3] = [2000, 3000, 4000];
pub const TRACE_ROWS: [(&str, usize); 2] = [("report", 1024), ("replay", 1024)];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AnalyzeHot,
    SweepCold,
    /// Optimizer searches plus Monte-Carlo validation (simulate and
    /// trace): every cached request that is not a plain analysis.
    OptimizeMc,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AnalyzeHot,
        Workload::SweepCold,
        Workload::OptimizeMc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeHot => "analyze_hot",
            Workload::SweepCold => "sweep_cold",
            Workload::OptimizeMc => "optimize_mc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request asks for, in the shape the in-process replay needs.
#[derive(Debug)]
pub enum Params {
    Analyze {
        engine: &'static str,
        bits: u8,
        bins: usize,
        pdf: bool,
    },
    Optimize {
        method: &'static str,
        ref_bits: u8,
    },
    Simulate {
        bits: u8,
        paths: usize,
        seed: u64,
        pdf: bool,
    },
    Trace {
        mode: &'static str,
        bits: u8,
        rows: usize,
        pdf: bool,
    },
}

/// One request of a round.
#[derive(Debug)]
pub struct Request {
    /// The JSON request line (no trailing newline).
    pub line: String,
    pub params: Params,
    /// Index into [`DESIGNS`] of the design the source derives from.
    pub design: usize,
    pub source: Arc<str>,
    /// Inline CSV of a trace request.
    pub csv: Option<Arc<str>>,
    /// Request class, for the per-class counts in the README.
    pub class: &'static str,
    /// `sweep_cold`: the cache tier the request is built to hit.
    pub expect_tier: Option<&'static str>,
    /// Key of the expected noise moments (analyze requests).
    pub expect_key: Option<String>,
    /// `sweep_cold` retunes: the program whose cached skeleton the
    /// retune is respun from.
    pub donor: Option<Arc<str>>,
}

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builds the seeded round of `workload`.
pub fn round(workload: Workload, seed: u64) -> Vec<Request> {
    // Mix the workload into the seed so workloads never share streams.
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut reqs = match workload {
        Workload::AnalyzeHot => analyze_hot(&mut rng),
        Workload::SweepCold => sweep_cold(&mut rng),
        Workload::OptimizeMc => {
            let mut reqs = optimize_requests();
            reqs.extend(mc_requests(&mut rng));
            rng.shuffle(&mut reqs);
            reqs
        }
    };
    for (id, r) in reqs.iter_mut().enumerate() {
        r.line = format!("{{\"id\":{id},{}", &r.line[1..]);
    }
    reqs
}

fn analyze_line(source: &str, engine: &str, bits: u8, bins: usize, pdf: bool) -> String {
    format!(
        "{{\"cmd\":\"analyze\",\"engine\":\"{engine}\",\"bits\":{bits},\"bins\":{bins},\"pdf\":{pdf},\"source\":{}}}",
        json_str(source)
    )
}

fn analyze_hot(rng: &mut Rng) -> Vec<Request> {
    let mut reqs = Vec::new();
    for (d, (name, source)) in DESIGNS.iter().enumerate() {
        let source: Arc<str> = Arc::from(*source);
        for (e, engine) in HOT_ENGINES.into_iter().enumerate() {
            if *name == NONLINEAR && engine == "na" {
                continue;
            }
            for (b, bins) in HOT_BINS.into_iter().enumerate() {
                let bits = slot_bits(d + 3 * e + b);
                let pdf = (d + e + b) % 2 == 0;
                reqs.push(Request {
                    line: analyze_line(&source, engine, bits, bins, pdf),
                    params: Params::Analyze {
                        engine,
                        bits,
                        bins,
                        pdf,
                    },
                    design: d,
                    source: Arc::clone(&source),
                    csv: None,
                    class: engine,
                    expect_tier: None,
                    expect_key: Some(format!("hot/{name}/{bits}")),
                    donor: None,
                });
            }
        }
    }
    rng.shuffle(&mut reqs);
    reqs
}

/// One `sweep_cold` group: a structurally new program (the shipped
/// design plus an `aux` output whose shape is unique to the group), its
/// coefficient retune, and the word length every request of the group
/// uses. The pool is fixed — the seed only orders it and respells — so
/// the checked-in expected moments cover every seed.
pub struct SweepGroup {
    pub design: usize,
    pub base: String,
    pub retune: String,
    pub bits: u8,
}

fn first_input(design: usize) -> &'static str {
    match DESIGNS[design].0 {
        "rgb" => "R",
        "vec_dot" => "v[0]",
        _ => "x",
    }
}

/// The fixed `sweep_cold` pool, in group order.
pub fn sweep_pool() -> Vec<SweepGroup> {
    let mut rng = Rng::new(0x5eed_5eed);
    let mut pool = Vec::new();
    for d in (0..DESIGNS.len()).filter(|&d| DESIGNS[d].0 != NONLINEAR) {
        let input = first_input(d);
        for v in 0..SWEEP_VARIANTS {
            let terms = v / SWEEP_DELAYS + 1;
            let delays = v % SWEEP_DELAYS;
            // Σ|c| ≤ 1 keeps `aux` inside the input's range, so it fits
            // every word length the input fits.
            let coeffs: Vec<f64> = (0..terms)
                .map(|_| {
                    let sign = if rng.coin() { 1.0 } else { -1.0 };
                    sign * (0.5 + 0.5 * rng.unit()) / terms as f64
                })
                .collect();
            let retuned: Vec<f64> = coeffs
                .iter()
                .map(|c| c * (0.75 + 0.125 * rng.unit()))
                .collect();
            let program = |cs: &[f64]| {
                let terms: Vec<String> = cs.iter().map(|c| format!("{c:.6}*{input}")).collect();
                let mut text = format!(
                    "{}\nzq0 = {};\n",
                    DESIGNS[d].1.trim_end(),
                    terms.join(" + ")
                );
                for k in 1..=delays {
                    text.push_str(&format!("zq{k} = delay zq{};\n", k - 1));
                }
                text.push_str(&format!("output aux = zq{delays};\n"));
                text
            };
            pool.push(SweepGroup {
                design: d,
                base: program(&coeffs),
                retune: program(&retuned),
                bits: slot_bits(pool.len()),
            });
        }
    }
    pool
}

fn sweep_cold(rng: &mut Rng) -> Vec<Request> {
    let pool = sweep_pool();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut order);
    let mut reqs = Vec::new();
    for g in order {
        let group = &pool[g];
        // A respelling: same canonical program, new bytes.
        let respelled = format!(
            "# respelled {:08x}\n{}",
            rng.next_u64() as u32,
            group.base.replace(" = ", " =  ")
        );
        let key = |kind: &str| Some(format!("sweep/{g}/{kind}"));
        let base: Arc<str> = Arc::from(group.base.as_str());
        for (text, tier, class, expect_key, donor) in [
            (
                group.base.clone(),
                "miss",
                "new-structure",
                key("base"),
                None,
            ),
            (respelled, "canon-hit", "respelling", key("base"), None),
            (
                group.retune.clone(),
                "shape-hit",
                "retune",
                key("retune"),
                Some(base.clone()),
            ),
        ] {
            let source: Arc<str> = Arc::from(text.as_str());
            reqs.push(Request {
                line: analyze_line(&source, "na", group.bits, 64, false),
                params: Params::Analyze {
                    engine: "na",
                    bits: group.bits,
                    bins: 64,
                    pdf: false,
                },
                design: group.design,
                source,
                csv: None,
                class,
                expect_tier: Some(tier),
                expect_key,
                donor,
            });
        }
    }
    reqs
}

fn optimize_requests() -> Vec<Request> {
    let mut reqs = Vec::new();
    for (d, (_, source)) in DESIGNS.iter().enumerate() {
        let source: Arc<str> = Arc::from(*source);
        for method in OPT_METHODS {
            for ref_bits in OPT_REF_BITS {
                reqs.push(Request {
                    line: format!(
                        "{{\"cmd\":\"optimize\",\"method\":\"{method}\",\"ref_bits\":{ref_bits},\"threads\":1,\"source\":{}}}",
                        json_str(&source)
                    ),
                    params: Params::Optimize { method, ref_bits },
                    design: d,
                    source: Arc::clone(&source),
                    csv: None,
                    class: method,
                    expect_tier: None,
                    expect_key: None,
                    donor: None,
                });
            }
        }
    }
    reqs
}

/// The inputs of a design with their declared ranges, in input order.
pub fn design_inputs(design: usize) -> Vec<(String, f64, f64)> {
    let lowered = sna_lang::compile(DESIGNS[design].1).expect("shipped designs compile");
    lowered
        .dfg
        .input_names()
        .iter()
        .zip(&lowered.input_ranges)
        .map(|(n, r)| (n.clone(), r.lo(), r.hi()))
        .collect()
}

/// A CSV recording of `rows` samples drawn inside the declared ranges.
pub fn trace_csv(inputs: &[(String, f64, f64)], rows: usize, rng: &mut Rng) -> String {
    let names: Vec<&str> = inputs.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut csv = names.join(",");
    csv.push('\n');
    for _ in 0..rows {
        for (j, (_, lo, hi)) in inputs.iter().enumerate() {
            if j > 0 {
                csv.push(',');
            }
            // Four decimals round inside the range: every declared bound
            // has at most four.
            csv.push_str(&format!("{:.4}", lo + (hi - lo) * rng.unit()));
        }
        csv.push('\n');
    }
    csv
}

fn mc_requests(rng: &mut Rng) -> Vec<Request> {
    let mut reqs = Vec::new();
    for (d, (_, source)) in DESIGNS.iter().enumerate() {
        let source: Arc<str> = Arc::from(*source);
        for (k, paths) in SIM_PATHS.into_iter().enumerate() {
            let bits = slot_bits(3 * d + k);
            let seed = rng.next_u64() >> 40;
            let pdf = k == 1;
            reqs.push(Request {
                line: format!(
                    "{{\"cmd\":\"simulate\",\"bits\":{bits},\"paths\":{paths},\"seed\":{seed},\"workers\":1,\"pdf\":{pdf},\"source\":{}}}",
                    json_str(&source)
                ),
                params: Params::Simulate {
                    bits,
                    paths,
                    seed,
                    pdf,
                },
                design: d,
                source: Arc::clone(&source),
                csv: None,
                class: "simulate",
                expect_tier: None,
                expect_key: None,
                donor: None,
            });
        }
        let inputs = design_inputs(d);
        for (k, (mode, rows)) in TRACE_ROWS.into_iter().enumerate() {
            let bits = slot_bits(2 * d + k + 3);
            let pdf = k == 0;
            let csv = trace_csv(&inputs, rows, rng);
            reqs.push(Request {
                line: format!(
                    "{{\"cmd\":\"trace\",\"mode\":\"{mode}\",\"bits\":{bits},\"workers\":1,\"pdf\":{pdf},\"source\":{},\"trace\":{}}}",
                    json_str(&source),
                    json_str(&csv)
                ),
                params: Params::Trace {
                    mode,
                    bits,
                    rows,
                    pdf,
                },
                design: d,
                source: Arc::clone(&source),
                csv: Some(Arc::from(csv.as_str())),
                class: "trace",
                expect_tier: None,
                expect_key: None,
                donor: None,
            });
        }
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    fn class_counts(reqs: &[Request]) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for r in reqs {
            *counts.entry(r.class).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn same_seed_gives_a_byte_identical_round() {
        for w in Workload::ALL {
            let a: Vec<String> = round(w, 7).into_iter().map(|r| r.line).collect();
            let b: Vec<String> = round(w, 7).into_iter().map(|r| r.line).collect();
            assert_eq!(a, b, "{}", w.name());
            let c: Vec<String> = round(w, 8).into_iter().map(|r| r.line).collect();
            assert_ne!(a, c, "{}: another seed must change the round", w.name());
        }
    }

    #[test]
    fn class_counts_match_the_readme() {
        let expect: [(Workload, &[(&str, usize)]); 3] = [
            (
                Workload::AnalyzeHot,
                &[("auto", 21), ("dfg", 21), ("na", 18), ("symbolic", 21)],
            ),
            (
                Workload::SweepCold,
                &[("new-structure", 300), ("respelling", 300), ("retune", 300)],
            ),
            (
                Workload::OptimizeMc,
                &[
                    ("anneal", 21),
                    ("greedy", 21),
                    ("group-greedy", 21),
                    ("waterfill", 21),
                    ("simulate", 21),
                    ("trace", 14),
                ],
            ),
        ];
        for seed in [1, 2, 3] {
            for (w, want) in expect {
                let got = class_counts(&round(w, seed));
                let want: BTreeMap<&str, usize> = want.iter().copied().collect();
                assert_eq!(got, want, "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn every_request_is_valid_by_construction() {
        for w in Workload::ALL {
            let reqs = round(w, 11);
            let mut lines = HashSet::new();
            for r in &reqs {
                assert!(lines.insert(r.line.clone()), "duplicate line in a round");
                assert!(!r.line.contains("cartesian"));
                let doc = sna_service::Json::parse(&r.line).expect("request lines are JSON");
                let num = |k: &str| doc.get(k).and_then(sna_service::Json::as_f64);
                let lowered = sna_lang::compile(&r.source).expect("sources compile");
                match &r.params {
                    Params::Analyze { engine, bits, .. } => {
                        assert!(
                            lowered.dfg.is_linear() || !matches!(*engine, "na" | "lti"),
                            "na/lti sent to a nonlinear design"
                        );
                        assert!(BITS.contains(bits));
                        sna_fixp::WlConfig::from_ranges(&lowered.dfg, &lowered.input_ranges, *bits)
                            .expect("word length fits every node");
                    }
                    Params::Optimize { .. } => assert_eq!(num("threads"), Some(1.0)),
                    Params::Simulate { bits, .. } | Params::Trace { bits, .. } => {
                        assert_eq!(num("workers"), Some(1.0));
                        sna_fixp::WlConfig::from_ranges(&lowered.dfg, &lowered.input_ranges, *bits)
                            .expect("word length fits every node");
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_groups_have_distinct_shapes_and_matching_retunes() {
        let pool = sweep_pool();
        assert!(pool.len() > 256, "the pool must outgrow the cache");
        let mut shapes = HashSet::new();
        for g in &pool {
            let base = sna_lang::compile(&g.base).expect("base compiles");
            let retune = sna_lang::compile(&g.retune).expect("retune compiles");
            assert_eq!(base.shape_key(), retune.shape_key());
            assert!(shapes.insert(base.shape_key()), "two groups share a shape");
        }
        for r in round(Workload::SweepCold, 5)
            .iter()
            .filter(|r| r.class == "respelling")
        {
            let canon = sna_lang::parse(&r.source)
                .expect("respelling parses")
                .to_string();
            assert!(pool
                .iter()
                .any(|g| sna_lang::parse(&g.base).unwrap().to_string() == canon));
        }
    }
}
