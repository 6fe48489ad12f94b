//! The traced run: per-layer numbers.
//!
//! 1. Server phase (a third of the run): the same closed loop as the
//!    untraced run, for `service.transport_us` (client round trip minus
//!    the server's own `elapsed_us`), the per-round cache tiers and the
//!    bytes on the wire.
//! 2. In-process phase (the rest): the round is replayed against a
//!    `CompileCache` of the benchmark's own, calling each layer's public
//!    function in the order the server does, with a span around each
//!    call. Each iteration replays the round three times: through the
//!    whole handler (`service.handle`), then layer by layer untraced,
//!    then layer by layer traced; the ratio of the last two is the
//!    tracing overhead.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `repobench/out/spans-<workload>-<seed>.tsv` at exit. A
//! layer's self time is its span's duration minus its children's.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sna_core::{AnalysisRequest, Budget, EngineKind, Session, SimRequest, TraceRequest, WlChoice};
use sna_hls::SynthesisConstraints;
use sna_opt::{AnnealOptions, Optimizer};
use sna_service::{exec, CompileCache, ExecLimits, Json, Lookup, StatsRegistry};
use sna_trace::{Trace, TraceLimits};

use crate::check::strip_timings;
use crate::workload::{self, Params, Request, Workload};
use crate::{median, server_request_count, setup, wire, Checker, Outcome, Report, Tally};

/// Every span the replay records, in report order.
const SPANS: [&str; 24] = [
    "service.handle",
    "service.json.decode",
    "service.cache.lookup",
    "lang.parse",
    "lang.lower",
    "core.ranges",
    "core.na_build",
    "core.respin",
    "core.vm_compile",
    "core.analyze.na",
    "core.analyze.lti",
    "core.analyze.dfg",
    "core.analyze.symbolic",
    "opt.setup",
    "opt.uniform",
    "opt.greedy",
    "opt.waterfill",
    "opt.group_greedy",
    "opt.anneal",
    "hls.synth",
    "vm.simulate",
    "trace.parse",
    "core.trace",
    "service.json.encode",
];

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: usize,
}

/// Records spans when on; runs the closure bare when off.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: Cell<usize>,
}

impl Tracer {
    fn new(on: bool, t0: Instant) -> Self {
        Tracer {
            on,
            t0,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.t0.elapsed(),
                end: Duration::ZERO,
                parent: self.stack.borrow().last().copied(),
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.t0.elapsed();
        out
    }

    /// Self time (µs) of every span, grouped by name.
    fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.borrow();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_time) {
            let own = (s.end - s.start).saturating_sub(children);
            out.entry(s.name).or_default().push(own.as_secs_f64() * 1e6);
        }
        out
    }

    fn dump(&self, out: &mut String) {
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
    }
}

/// Work counters of the layered replay.
#[derive(Default)]
struct Work {
    samples: f64,
    rows: f64,
    opt_failed: usize,
}

fn analyze_span(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Na => "core.analyze.na",
        EngineKind::Lti => "core.analyze.lti",
        EngineKind::Dfg => "core.analyze.dfg",
        _ => "core.analyze.symbolic",
    }
}

fn opt_span(method: &str) -> &'static str {
    match method {
        "greedy" => "opt.greedy",
        "waterfill" => "opt.waterfill",
        "group-greedy" => "opt.group_greedy",
        _ => "opt.anneal",
    }
}

/// One request, layer by layer, the way the server handles it. Returns
/// the encoded `result` (or the error the server would render) and the
/// cache tier.
fn replay_layers(
    t: &Tracer,
    cache: &CompileCache,
    req: &Request,
    work: &mut Work,
) -> (Result<String, String>, Lookup) {
    let doc = t
        .span("service.json.decode", || Json::parse(&req.line))
        .expect("request lines are JSON");
    let source = doc
        .get("source")
        .and_then(Json::as_str)
        .expect("inline source");
    let (entry, lookup) = t
        .span("service.cache.lookup", || cache.get_or_compile(source))
        .expect("sources compile");
    // The server parses and compiles inside the lookup, by tier; the
    // cache does not expose those stages, so each is timed here on fresh
    // objects, doing what the tier did.
    if lookup != Lookup::SourceHit {
        let program = t
            .span("lang.parse", || sna_lang::parse(source))
            .expect("parses");
        if matches!(lookup, Lookup::ShapeHit | Lookup::Miss) {
            let lowered = t
                .span("lang.lower", || sna_lang::lower(&program))
                .expect("lowers");
            if let (Lookup::ShapeHit, Some(donor)) = (lookup, &req.donor) {
                let donor = sna_lang::compile(donor).expect("donor compiles");
                let donor = Session::new(donor.dfg, donor.input_ranges).expect("valid session");
                let _ = donor.na_model();
                let coeffs = lowered.dfg.const_values();
                let _ = t.span("core.respin", || donor.with_coefficients(&coeffs));
            } else {
                let session =
                    Session::new(lowered.dfg, lowered.input_ranges).expect("valid session");
                let _ = t.span("core.ranges", || session.node_ranges());
                if session.dfg().is_linear() {
                    let _ = t.span("core.na_build", || session.na_model());
                }
                let _ = t.span("core.vm_compile", || session.vm_program());
            }
        }
    }
    let session = &entry.session;
    let unlimited = Budget::unlimited();
    let result: Result<Json, String> = match &req.params {
        Params::Analyze {
            engine,
            bits,
            bins,
            pdf,
        } => {
            let kind = exec::AnalyzeEngine::parse(engine).expect("known engine");
            let resolved = session.resolve_engine(kind).expect("valid by construction");
            let report = t
                .span(analyze_span(resolved), || {
                    session.analyze(&AnalysisRequest {
                        engine: kind,
                        words: WlChoice::Uniform(*bits),
                        bins: *bins,
                        include_pdf: true,
                        budget: unlimited.clone(),
                    })
                })
                .map_err(|e| e.to_string());
            report.map(|report| {
                Json::Obj(vec![
                    ("engine".into(), Json::str(report.engine.name())),
                    ("bits".into(), Json::int(*bits as usize)),
                    ("bins".into(), Json::int(*bins)),
                    ("kind".into(), Json::str(report.kind.as_str())),
                    (
                        "reports".into(),
                        Json::Arr(
                            report
                                .reports
                                .iter()
                                .map(|(name, r)| exec::report_json(name, r, *pdf))
                                .collect(),
                        ),
                    ),
                ])
            })
        }
        Params::Optimize { method, ref_bits } => {
            let constraints = SynthesisConstraints::default();
            let opt = t
                .span("opt.setup", || {
                    Optimizer::from_session(session, constraints.clone())
                })
                .expect("optimizer builds");
            let reference = t
                .span("opt.uniform", || opt.uniform(*ref_bits))
                .expect("reference synthesizes");
            let budget = reference.noise_power;
            let start = exec::OptimizeParams::default().start;
            let answer = t.span(opt_span(method), || match *method {
                "greedy" => opt.greedy(budget, start),
                "waterfill" => opt.waterfill(budget),
                "group-greedy" => opt.group_greedy(budget, start),
                _ => opt.anneal(
                    budget,
                    start,
                    &AnnealOptions {
                        restarts: 1,
                        threads: 1,
                        ..AnnealOptions::default()
                    },
                ),
            });
            match answer {
                Ok(answer) => {
                    let _ = t.span("hls.synth", || {
                        sna_hls::synthesize(session.dfg(), &answer.config, &constraints)
                    });
                    Ok(Json::Obj(vec![
                        ("budget".into(), Json::Num(budget)),
                        ("reference".into(), exec::eval_json(&reference)),
                        (
                            "results".into(),
                            Json::Obj(vec![(method.to_string(), exec::eval_json(&answer))]),
                        ),
                    ]))
                }
                Err(e) => {
                    work.opt_failed += 1;
                    Err(format!("method `{method}` failed: {e}"))
                }
            }
        }
        Params::Simulate {
            bits,
            paths,
            seed,
            pdf,
        } => {
            let report = t
                .span("vm.simulate", || {
                    session.simulate(&SimRequest {
                        words: WlChoice::Uniform(*bits),
                        paths: *paths,
                        seed: *seed,
                        steps: None,
                        warmup: None,
                        workers: 1,
                        bins: 64,
                        budget: unlimited.clone(),
                    })
                })
                .map_err(|e| e.to_string());
            report.map(|report| {
                work.samples += (report.paths * report.steps) as f64;
                let mut fields = vec![
                    ("engine".into(), Json::str("simulate")),
                    ("bits".into(), Json::int(*bits as usize)),
                    ("bins".into(), Json::int(64)),
                ];
                fields.extend(exec::simulate_json_fields(&report, *pdf));
                Json::Obj(fields)
            })
        }
        Params::Trace {
            mode, bits, pdf, ..
        } => {
            let csv = doc.get("trace").and_then(Json::as_str).expect("inline CSV");
            let limits = TraceLimits {
                max_bytes: exec::MAX_TRACE_BYTES,
                max_rows: exec::MAX_TRACE_ROWS,
            };
            let trace = t
                .span("trace.parse", || {
                    Trace::parse(csv, session.dfg().input_names(), &limits)
                })
                .expect("generated CSV parses");
            work.rows += trace.rows() as f64;
            let report = t
                .span("core.trace", || {
                    session.trace(
                        &trace,
                        &TraceRequest {
                            words: WlChoice::Uniform(*bits),
                            bins: 64,
                            warmup: None,
                            workers: 1,
                            predict: *mode == "report",
                            budget: unlimited.clone(),
                        },
                    )
                })
                .map_err(|e| e.to_string());
            report.map(|report| {
                let mut fields = vec![
                    ("engine".into(), Json::str("trace")),
                    ("mode".into(), Json::str(*mode)),
                    ("bits".into(), Json::int(*bits as usize)),
                    ("bins".into(), Json::int(64)),
                ];
                fields.extend(exec::trace_json_fields(&report, *pdf));
                Json::Obj(fields)
            })
        }
    };
    let encoded = result.map(|r| t.span("service.json.encode", || r.to_compact()));
    (encoded, lookup)
}

/// Checks a replayed answer against the server's answer to request `i`.
fn check_in_process(
    checker: &mut Checker,
    server_errors: &[Option<String>],
    round: &[Request],
    i: usize,
    answer: &Result<String, String>,
    lookup: Option<Lookup>,
) -> Outcome {
    if let (Some(tier), Some(lookup)) = (round[i].expect_tier, lookup) {
        if lookup.as_str() != tier {
            return Outcome::Wrong(format!(
                "in-process cache tier `{}`, built for `{tier}`",
                lookup.as_str()
            ));
        }
    }
    match (answer, &server_errors[i]) {
        (Ok(text), None) => checker.check_replayed(i, text),
        (Err(e), Some(server)) if e == server => Outcome::Refused(e.clone()),
        (Err(e), _) => Outcome::Wrong(format!("in-process replay failed: {e}")),
        (Ok(_), Some(_)) => Outcome::Wrong("the server refused what the replay answered".into()),
    }
}

pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Result<Report, String> {
    let round = workload::round(workload, seed);
    let mut checker = Checker::new(&round)?;
    let mut warm = Tally::default();
    let mut tally = Tally::default();

    // 1. Server phase.
    let (mut server, _, _, replies) = setup(&round, None)?;
    let mut server_errors: Vec<Option<String>> = vec![None; round.len()];
    for (i, reply) in replies.iter().enumerate() {
        let outcome = checker.check(i, reply);
        if let Outcome::Refused(m) = &outcome {
            server_errors[i] = Some(m.clone());
        }
        warm.add(&outcome);
    }
    let lines: Vec<String> = round.iter().map(wire).collect();
    let bytes_in: usize = lines.iter().map(String::len).sum();
    let mut bytes_out = 0usize;
    let mut tiers: BTreeMap<String, usize> = BTreeMap::new();
    let mut transport = Vec::new();
    let mut sent = round.len();
    let phase = seconds / 3;
    let started = Instant::now();
    let mut server_rounds = 0usize;
    while server_rounds == 0 || started.elapsed() < phase {
        for (i, line) in lines.iter().enumerate() {
            let t = Instant::now();
            let reply = server.call(line.as_bytes())?.to_string();
            let rtt_us = t.elapsed().as_secs_f64() * 1e6;
            sent += 1;
            let outcome = checker.check(i, &reply);
            if server_rounds == 0 {
                // Timings aside, so the count repeats exactly.
                bytes_out += strip_timings(&reply).len() + 1;
                let tier = Json::parse(&reply)
                    .ok()
                    .and_then(|d| d.get("cache").and_then(Json::as_str).map(str::to_string))
                    .unwrap_or_else(|| "none".into());
                *tiers.entry(tier).or_insert(0) += 1;
            }
            if let Outcome::Good { elapsed_us } = outcome {
                transport.push(rtt_us - elapsed_us as f64);
            }
            tally.add(&outcome);
        }
        server_rounds += 1;
    }
    let served = server_request_count(&mut server)?;
    server.stop();
    let reconciled = served == sent as u64 + 1;

    // 2. In-process phase.
    let cache = CompileCache::new();
    let stats = StatsRegistry::new();
    let limits = ExecLimits::default();
    let t0 = Instant::now();
    let handle = Tracer::new(true, t0);
    let untraced = Tracer::new(false, t0);
    let traced = Tracer::new(true, t0);
    let mut work = Work::default();
    let mut untraced_work = Work::default();
    let handle_round = |tracer: &Tracer| -> Vec<Result<String, String>> {
        round
            .iter()
            .enumerate()
            .map(|(i, r)| {
                tracer.request.set(i);
                let reply = tracer.span("service.handle", || {
                    sna_service::handle_line_untrusted_stats_limited(
                        &cache, &stats, &limits, &r.line,
                    )
                    .to_compact()
                });
                let doc = Json::parse(&reply).expect("the handler answers JSON");
                match doc.get("result") {
                    Some(result) => Ok(result.to_compact()),
                    None => Err(doc
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string()),
                }
            })
            .collect()
    };
    // Warm-up: fills this cache the way set-up filled the server's.
    for (i, answer) in handle_round(&Tracer::new(false, t0)).iter().enumerate() {
        warm.add(&check_in_process(
            &mut checker,
            &server_errors,
            &round,
            i,
            answer,
            None,
        ));
    }
    let deadline = seconds - phase;
    let phase_started = Instant::now();
    let (mut iterations, mut untraced_time, mut traced_time) = (0usize, 0.0, 0.0);
    while iterations == 0 || phase_started.elapsed() < deadline {
        for (i, answer) in handle_round(&handle).iter().enumerate() {
            tally.add(&check_in_process(
                &mut checker,
                &server_errors,
                &round,
                i,
                answer,
                None,
            ));
        }
        // Alternate which replay goes first, so neither always runs on
        // the caches the other warmed.
        let mut passes = [
            (&untraced, &mut untraced_time, &mut untraced_work),
            (&traced, &mut traced_time, &mut work),
        ];
        if iterations % 2 == 1 {
            passes.reverse();
        }
        for (tracer, time, counters) in passes {
            let started = Instant::now();
            let answers: Vec<_> = round
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    tracer.request.set(i);
                    tracer.span("request", || replay_layers(tracer, &cache, r, counters))
                })
                .collect();
            *time += started.elapsed().as_secs_f64();
            for (i, (answer, lookup)) in answers.iter().enumerate() {
                tally.add(&check_in_process(
                    &mut checker,
                    &server_errors,
                    &round,
                    i,
                    answer,
                    Some(*lookup),
                ));
            }
        }
        iterations += 1;
    }

    // Per-layer metrics.
    let traced_times = traced.self_times();
    let mut self_times = traced_times.clone();
    self_times.extend(handle.self_times());
    let per_round = |n: f64| n / iterations as f64;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    for name in SPANS {
        let times = self_times.remove(name).unwrap_or_default();
        let calls = times.len() as f64;
        let med = if times.is_empty() { 0.0 } else { median(times) };
        metrics.push((format!("{name}_us"), med, "us"));
        metrics.push((format!("{name}.calls"), per_round(calls), "count"));
    }
    let total_us = |name: &str| -> f64 { traced_times.get(name).map_or(0.0, |v| v.iter().sum()) };
    let rate = |amount: f64, us: f64| if us > 0.0 { amount / (us * 1e-6) } else { 0.0 };
    let tier = |k: &str| tiers.get(k).copied().unwrap_or(0) as f64;
    metrics.extend(
        [
            ("service.transport_us", median(transport), "us"),
            ("service.cache.hit", tier("hit"), "count"),
            ("service.cache.canon_hit", tier("canon-hit"), "count"),
            ("service.cache.shape_hit", tier("shape-hit"), "count"),
            ("service.cache.miss", tier("miss"), "count"),
            ("service.bytes_in", bytes_in as f64, "bytes"),
            ("service.bytes_out", bytes_out as f64, "bytes"),
            ("opt.failed", per_round(work.opt_failed as f64), "count"),
            (
                "vm.samples_per_s",
                rate(work.samples, total_us("vm.simulate")),
                "1/s",
            ),
            (
                "trace.rows_per_s",
                rate(work.rows, total_us("trace.parse")),
                "1/s",
            ),
            (
                "tracing.overhead_ratio",
                traced_time / untraced_time,
                "ratio",
            ),
        ]
        .map(|(name, value, unit)| (name.to_string(), value, unit)),
    );

    let mut dump = String::from("request\tspan\tparent\tname\tstart_ns\tend_ns\n");
    handle.dump(&mut dump);
    traced.dump(&mut dump);
    let path = format!("repobench/out/spans-{}-{seed}.tsv", workload.name());
    std::fs::create_dir_all("repobench/out")
        .and_then(|()| std::fs::write(&path, dump))
        .map_err(|e| format!("cannot write {path}: {e}"))?;

    let mut notes = vec![
        format!(
            "workload {} · seed {seed} · traced · {server_rounds} server round(s), {iterations} in-process iteration(s)",
            workload.name()
        ),
        format!("spans written to {path}"),
        format!("stats reconciliation: server counted {served}, client sent {}", sent + 1),
    ];
    notes.extend(warm.notes("warm-up failures"));
    notes.extend(tally.notes("failures"));
    Ok(Report {
        correct: reconciled && warm.unexpected == 0 && tally.unexpected == 0,
        attempted: tally.good + tally.failed,
        failed: tally.failed,
        metrics,
        notes,
    })
}
