//! `repobench`: the repository benchmark.
//!
//! ```text
//! repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! repobench gen-expected > repobench/data/expected_moments.tsv
//! repobench sna <args>          # the `sna` CLI (runs the server under test)
//! ```
//!
//! `--trace 0` drives `sna serve` over one closed-loop TCP connection and
//! prints the end-to-end metrics; `--trace 1` replays the same round
//! in-process with spans around each layer's public call and prints the
//! per-layer metrics. The last stdout line is one JSON object. See
//! `README.md` for the workloads and metrics.

mod check;
mod client;
mod layers;
mod workload;
mod yardstick;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sna_service::Json;

use check::{strip_timings, Expected, Rescorer};
use client::Server;
use workload::{Params, Request, Workload, DESIGNS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: repobench --workload <analyze_hot|sweep_cold|optimize_mc> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(bad)?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("sna") => return sna_main(&argv[1..]),
        Some("gen-expected") => {
            print!("{}", check::generate_expected(2));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let opts = match parse_opts(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.trace {
        layers::run(opts.workload, opts.seed, Duration::from_secs(opts.seconds))
    } else {
        run_untraced(opts.workload, opts.seed, Duration::from_secs(opts.seconds))
    };
    match outcome {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("repobench: output checks or reconciliation failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `sna` command line, exactly as `crates/cli/src/main.rs` runs it.
fn sna_main(argv: &[String]) -> ExitCode {
    match sna_cli::run(argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(1))
        }
    }
}

/// What a run prints.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&format!(
            "attempted {} · failed {} · correct {}\n",
            self.attempted, self.failed, self.correct
        ));
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<32} {value:>16.6} {unit}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ));
        let mut stdout = std::io::stdout().lock();
        let _ = stdout.write_all(out.as_bytes());
        let _ = stdout.flush();
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// How one answer fared.
pub enum Outcome {
    /// Answered `ok` and passed its checks.
    Good { elapsed_us: u64 },
    /// Answered `ok: false`.
    Refused(String),
    /// Answered, but the answer failed a check.
    Wrong(String),
}

/// Checks answers against the references (see `check.rs`), remembering
/// per request of the round the first result seen and the verdict of
/// its reference check, so repeats cost one comparison.
pub struct Checker<'a> {
    round: &'a [Request],
    expected: Expected,
    rescorer: Rescorer,
    reference: Vec<Option<String>>,
    verdict: Vec<Option<Result<(), String>>>,
    /// `optimize`: answer cost over the uniform reference's cost.
    pub cost_ratio: Vec<Option<f64>>,
}

impl<'a> Checker<'a> {
    pub fn new(round: &'a [Request]) -> Result<Self, String> {
        Ok(Checker {
            round,
            expected: Expected::load()?,
            rescorer: Rescorer::default(),
            reference: vec![None; round.len()],
            verdict: vec![None; round.len()],
            cost_ratio: vec![None; round.len()],
        })
    }

    /// Checks the reply `line` to request `i` of the round.
    pub fn check(&mut self, i: usize, line: &str) -> Outcome {
        let doc = match Json::parse(line) {
            Ok(d) => d,
            Err(e) => return Outcome::Wrong(format!("unparsable reply: {e}")),
        };
        if doc.get("id").and_then(Json::as_f64) != Some(i as f64) {
            return Outcome::Wrong("reply id does not match the request".into());
        }
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = doc.get("error").and_then(Json::as_str).unwrap_or("?");
            return Outcome::Refused(msg.to_string());
        }
        let req = &self.round[i];
        if let Some(tier) = req.expect_tier {
            let got = doc.get("cache").and_then(Json::as_str).unwrap_or("none");
            if got != tier {
                return Outcome::Wrong(format!("cache tier `{got}`, built for `{tier}`"));
            }
        }
        let Some(at) = line.find(",\"result\":") else {
            return Outcome::Wrong("reply has no result".into());
        };
        let result_text = strip_timings(&line[at + 10..line.len() - 1]);
        match &self.reference[i] {
            Some(reference) if *reference != result_text => {
                return Outcome::Wrong("a repeat of the request returned another result".into());
            }
            Some(_) => {}
            None => self.reference[i] = Some(result_text),
        }
        if self.verdict[i].is_none() {
            let result = doc.get("result").cloned().unwrap_or(Json::Null);
            self.verdict[i] = Some(self.check_content(i, &result));
        }
        if let Some(Err(e)) = &self.verdict[i] {
            return Outcome::Wrong(e.clone());
        }
        let elapsed_us = doc.get("elapsed_us").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Outcome::Good { elapsed_us }
    }

    /// Checks the result of an in-process replay against the server's
    /// answer to the same request (timings aside).
    pub fn check_replayed(&mut self, i: usize, result_text: &str) -> Outcome {
        match &self.reference[i] {
            Some(reference) if *reference == strip_timings(result_text) => {
                Outcome::Good { elapsed_us: 0 }
            }
            Some(_) => Outcome::Wrong("the in-process replay answered differently".into()),
            None => Outcome::Wrong("no server answer to compare with".into()),
        }
    }

    fn check_content(&mut self, i: usize, result: &Json) -> Result<(), String> {
        let req = &self.round[i];
        match &req.params {
            Params::Analyze { .. } => {
                let key = req
                    .expect_key
                    .as_deref()
                    .expect("analyze requests carry a key");
                self.expected
                    .check_analyze(key, DESIGNS[req.design].0, result)
            }
            Params::Optimize { method, .. } => {
                self.rescorer.check_optimize(&req.source, result)?;
                let cost = |e: Option<&Json>| {
                    e.and_then(|e| e.get("weighted_cost"))
                        .and_then(Json::as_f64)
                };
                let answer = cost(result.get("results").and_then(|r| r.get(method)));
                let reference = cost(result.get("reference"));
                match (answer, reference) {
                    (Some(a), Some(r)) if a > 0.0 && r > 0.0 => {
                        self.cost_ratio[i] = Some(a / r);
                        Ok(())
                    }
                    _ => Err("optimize answer has no positive weighted cost".into()),
                }
            }
            Params::Simulate { .. } | Params::Trace { .. } => Ok(()),
        }
    }
}

/// Tallies outcomes: failures by message, and how many of them are not
/// a known defect (see [`check::known_defect`]).
#[derive(Default)]
pub struct Tally {
    pub good: usize,
    pub failed: usize,
    pub unexpected: usize,
    pub messages: std::collections::BTreeMap<String, usize>,
}

impl Tally {
    pub fn add(&mut self, outcome: &Outcome) {
        let (kind, m) = match outcome {
            Outcome::Good { .. } => {
                self.good += 1;
                return;
            }
            Outcome::Refused(m) => ("refused", m),
            Outcome::Wrong(m) => ("check failed", m),
        };
        self.failed += 1;
        let label = if check::known_defect(m) {
            "known defect, "
        } else {
            self.unexpected += 1;
            ""
        };
        *self
            .messages
            .entry(format!("{label}{kind}: {m}"))
            .or_insert(0) += 1;
    }

    pub fn notes(&self, label: &str) -> Vec<String> {
        self.messages
            .iter()
            .map(|(m, n)| format!("{label}: {n} × {m}"))
            .collect()
    }
}

/// Spawns a server and sends every request of the round once. Returns
/// the server, the set-up time, the part of it spent in round trips
/// beyond what the handler reported (see [`handler_seconds`]), and the
/// warm-up replies. With a yardstick, ticks it between requests and
/// leaves its chunks out of the set-up time.
pub fn setup(
    round: &[Request],
    mut yard: Option<&mut yardstick::Yardstick>,
) -> Result<(Server, Duration, f64, Vec<String>), String> {
    let started = Instant::now();
    let mut yard_time = Duration::ZERO;
    let mut transport = 0.0;
    let mut server = Server::spawn()?;
    let mut replies = Vec::with_capacity(round.len());
    for r in round {
        let t = Instant::now();
        let reply = server.call(wire(r).as_bytes())?.to_string();
        let rtt = t.elapsed().as_secs_f64();
        transport += rtt - handler_seconds(&reply).unwrap_or(rtt).min(rtt);
        replies.push(reply);
        if let Some(y) = yard.as_deref_mut() {
            yard_time += y.tick()?;
        }
    }
    Ok((server, started.elapsed() - yard_time, transport, replies))
}

/// The handler time a reply reports (`elapsed_us`), in seconds; refusals
/// report none.
pub fn handler_seconds(reply: &str) -> Option<f64> {
    let at = reply.find("\"elapsed_us\":")? + "\"elapsed_us\":".len();
    let digits = reply[at..].split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse::<f64>().ok().map(|us| us * 1e-6)
}

/// The request line with its newline, ready for a single write.
pub fn wire(r: &Request) -> String {
    let mut line = String::with_capacity(r.line.len() + 1);
    line.push_str(&r.line);
    line.push('\n');
    line
}

/// Linear-interpolated quantile of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Sends `{"cmd":"stats"}` and returns `counters.requests`.
pub fn server_request_count(server: &mut Server) -> Result<u64, String> {
    let reply = server.call(b"{\"cmd\":\"stats\"}\n")?.to_string();
    let doc = Json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
    doc.get("result")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("requests"))
        .and_then(Json::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| "stats reply has no counters.requests".to_string())
}

/// Per-round tallies from the first measured round: request classes,
/// failures and cache tiers, as `class=count` notes.
fn round_notes(round: &[Request], replies: &[String], outcomes: &[Outcome]) -> Vec<String> {
    let mut classes = std::collections::BTreeMap::new();
    let mut tiers = std::collections::BTreeMap::new();
    let mut failed = 0;
    for ((r, reply), outcome) in round.iter().zip(replies).zip(outcomes) {
        *classes.entry(r.class).or_insert(0usize) += 1;
        if !matches!(outcome, Outcome::Good { .. }) {
            failed += 1;
        }
        let tier = Json::parse(reply)
            .ok()
            .and_then(|d| d.get("cache").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_else(|| "none".into());
        *tiers.entry(tier).or_insert(0usize) += 1;
    }
    vec![
        format!("per round: {} requests, {failed} failed", round.len()),
        format!("per round classes: {}", fmt_map(&classes)),
        format!("per round cache tiers: {}", fmt_map(&tiers)),
    ]
}

fn fmt_map<K: std::fmt::Display>(m: &std::collections::BTreeMap<K, usize>) -> String {
    m.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn run_untraced(workload: Workload, seed: u64, seconds: Duration) -> Result<Report, String> {
    let round = workload::round(workload, seed);
    let mut checker = Checker::new(&round)?;
    let mut tally = Tally::default();

    // Set-up, several times: spawn, ready, warm-up pass. The last
    // server stays up for the measured rounds.
    let mut setups = Vec::new();
    let mut kept = None;
    let mut setup_yard = yardstick::Yardstick::new()?;
    for k in 0..SETUPS {
        let (server, took, transport, replies) = setup(&round, Some(&mut setup_yard))?;
        setups.push((took.as_secs_f64(), transport));
        if k == 0 {
            // The first warm-up's answers become the repeat references.
            for (i, reply) in replies.iter().enumerate() {
                tally.add(&checker.check(i, reply));
            }
        }
        if k + 1 == SETUPS {
            kept = Some(server);
        } else {
            server.stop();
        }
    }
    let mut server = kept.expect("at least one set-up");
    // Warm-up failures are reported, and unexpected ones fail the run,
    // but only the measured rounds count as attempted.
    let warmup = tally;
    let mut tally = Tally::default();

    // Measured rounds, whole rounds only, closed loop.
    let lines: Vec<String> = round.iter().map(wire).collect();
    let mut rtts: Vec<(usize, f64, String)> = Vec::new();
    let mut round_times = Vec::new();
    let mut yard = yardstick::Yardstick::new()?;
    let mut yard_time = Duration::ZERO;
    let started = Instant::now();
    while round_times.is_empty() || started.elapsed() < seconds {
        let round_started = Instant::now();
        let round_yard = yard_time;
        for (i, line) in lines.iter().enumerate() {
            let t = Instant::now();
            let reply = server.call(line.as_bytes())?;
            let rtt = t.elapsed().as_secs_f64();
            rtts.push((i, rtt, reply.to_string()));
            yard_time += yard.tick()?;
        }
        round_times.push((round_started.elapsed() - (yard_time - round_yard)).as_secs_f64());
    }
    let wall = (started.elapsed() - yard_time).as_secs_f64();
    let rounds = round_times.len();
    let served = server_request_count(&mut server)?;
    let peak_rss = server.peak_rss_mib()?;
    server.stop();

    let sent = (round.len() + rtts.len() + 1) as u64;
    let reconciled = served == sent;

    // Times at reference speed (see `yardstick.rs`): round trips part by
    // part, the client's own time between them as compute.
    let speed = yard.speed();
    let mut latencies = Vec::with_capacity(rtts.len());
    let mut raw_latencies = Vec::with_capacity(rtts.len());
    let mut log_ratio = (0.0f64, 0usize);
    let mut outcomes = Vec::with_capacity(rtts.len());
    let (mut rtt_sum, mut rtt_ref_sum, mut handler_sum) = (0.0, 0.0, 0.0);
    for (i, rtt, reply) in &rtts {
        let outcome = checker.check(*i, reply);
        tally.add(&outcome);
        let handler = handler_seconds(reply).unwrap_or(*rtt).min(*rtt);
        handler_sum += handler;
        rtt_sum += rtt;
        let rtt_ref = speed.round_trip(*rtt, handler);
        rtt_ref_sum += rtt_ref;
        if let Outcome::Good { .. } = outcome {
            latencies.push(rtt_ref * 1e3);
            raw_latencies.push(rtt * 1e3);
            if let Some(r) = checker.cost_ratio[*i] {
                log_ratio.0 += r.ln();
                log_ratio.1 += 1;
            }
        }
        outcomes.push(outcome);
    }
    latencies.sort_by(f64::total_cmp);
    raw_latencies.sort_by(f64::total_cmp);
    let wall_ref = (wall - rtt_sum).max(0.0) * speed.compute + rtt_ref_sum;
    let setup_speed = setup_yard.speed();
    let setup_ref = median(
        setups
            .iter()
            .map(|&(took, transport)| setup_speed.round_trip(took, took - transport))
            .collect(),
    );
    let opt_cost_ratio = if log_ratio.1 > 0 {
        (log_ratio.0 / log_ratio.1 as f64).exp()
    } else {
        // No optimize answers in this workload: nothing differs from the
        // uniform reference.
        1.0
    };

    round_times.sort_by(f64::total_cmp);
    let round_spread = format!(
        "round wall times: min {:.3} s · median {:.3} s · max {:.3} s",
        round_times[0],
        quantile(&round_times, 0.5),
        round_times[rounds - 1]
    );
    let first_round: Vec<String> = rtts[..round.len()].iter().map(|r| r.2.clone()).collect();
    let mut notes = vec![format!(
        "workload {} · seed {seed} · {rounds} round(s) in {wall:.3} s · set-ups {:?} s",
        workload.name(),
        setups.iter().map(|s| s.0).collect::<Vec<_>>()
    )];
    notes.push(round_spread);
    notes.push(format!(
        "yardstick (reference over mean chunk part time): measured rounds {} chunks, compute {:.4}, wake-ups {:.4}; set-ups {} chunks, compute {:.4}, wake-ups {:.4}",
        yard.compute.len(),
        speed.compute,
        speed.wake,
        setup_yard.compute.len(),
        setup_speed.compute,
        setup_speed.wake,
    ));
    notes.push(format!(
        "as measured: goodput {:.3} rps, p50 {:.4} ms, p90 {:.4} ms, set-up {:.4} s; per request: handler {:.4} ms, rest of the round trip {:.4} ms, client {:.4} ms",
        tally.good as f64 / wall,
        quantile(&raw_latencies, 0.5),
        quantile(&raw_latencies, 0.9),
        median(setups.iter().map(|s| s.0).collect()),
        handler_sum / rtts.len() as f64 * 1e3,
        (rtt_sum - handler_sum) / rtts.len() as f64 * 1e3,
        (wall - rtt_sum) / rtts.len() as f64 * 1e3,
    ));
    notes.extend(round_notes(&round, &first_round, &outcomes[..round.len()]));
    notes.push(format!(
        "stats reconciliation: server counted {served}, client sent {sent}"
    ));
    notes.extend(warmup.notes("warm-up failures"));
    notes.extend(tally.notes("failures"));
    Ok(Report {
        correct: reconciled && warmup.unexpected == 0 && tally.unexpected == 0,
        attempted: rtts.len(),
        failed: tally.failed,
        metrics: vec![
            ("setup_s".into(), setup_ref, "s"),
            ("goodput_rps".into(), tally.good as f64 / wall_ref, "1/s"),
            ("latency_p50_ms".into(), quantile(&latencies, 0.5), "ms"),
            ("latency_p90_ms".into(), quantile(&latencies, 0.9), "ms"),
            ("peak_rss_mb".into(), peak_rss, "MiB"),
            ("opt_cost_ratio".into(), opt_cost_ratio, "ratio"),
        ],
        notes,
    })
}
