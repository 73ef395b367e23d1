//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_interactive|fleet_crash|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so `peak_rss_mb` (the process's `VmHWM`)
//! belongs to that workload alone. The seed only generates inputs; the
//! program under test receives the generated inputs. Every run checks
//! the program's outputs and exits non-zero when a check fails. The
//! human-readable report goes to stdout and the last stdout line is one
//! JSON object: `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a traced run. See `perfbench/README.md` for
//! the workloads, the metric map and the observed spread.

mod fleet;
mod paper;
mod serve;
mod speed;
mod trace;

use std::collections::BTreeMap;

use ftts_serve::Json;
use speed::{SpeedClock, SpeedTrace};

/// Whether a metric is wall-clock of the simulator (`host`) or virtual
/// time of the modeled edge system (`sim`, deterministic per seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
        }
    }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::Host),
    ("host_ms_per_req", "ms", Kind::Host),
    ("peak_rss_mb", "MB", Kind::Host),
    ("ok_frac", "frac", Kind::Host),
    ("sim_goodput_tok_s", "tok/s", Kind::Sim),
    ("sim_latency_p50_s", "s", Kind::Sim),
    ("sim_latency_p95_s", "s", Kind::Sim),
];

/// Per-layer metrics, reported by every workload's traced run. A
/// workload that never reaches a layer reports 0 for it.
///
/// Both tables must list the metrics of `BENCHMARK.json`, by name and
/// unit and in its order; the program refuses to run when they differ.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("reply_write_p50_ms", "ms", Kind::Host),
    ("reply_write_p95_ms", "ms", Kind::Host),
    ("reply_read_p50_ms", "ms", Kind::Host),
    ("reply_read_p95_ms", "ms", Kind::Host),
    ("sim_deadline_hit_rate", "frac", Kind::Sim),
    ("sim_speedup_vs_vllm", "x", Kind::Sim),
    ("engine.step_us", "us", Kind::Host),
    ("engine.steps", "count", Kind::Host),
    ("engine.gen_s", "s", Kind::Sim),
    ("engine.ver_s", "s", Kind::Sim),
    ("engine.recompute_s", "s", Kind::Sim),
    ("spec.efficiency", "frac", Kind::Sim),
    ("spec.lookahead_hits", "count", Kind::Sim),
    ("kv.gen.evicted_tokens", "count", Kind::Sim),
    ("kv.gen.recomputed_tokens", "count", Kind::Sim),
    ("kv.ver.recomputed_tokens", "count", Kind::Sim),
    ("fleet.run_ms", "ms", Kind::Host),
    ("fleet.resim_amplification", "x", Kind::Host),
    ("fleet.migrations", "count", Kind::Sim),
    ("fleet.hedges_wasted", "count", Kind::Sim),
    ("kv.tier_hits", "count", Kind::Sim),
    ("sched.launches", "count", Kind::Sim),
    ("sched.cobatch_width", "count", Kind::Sim),
    ("sched.preemptions", "count", Kind::Sim),
    ("sched.shed", "count", Kind::Sim),
    ("sched.degradations", "count", Kind::Sim),
    ("sched.queue_delay_p50_s", "s", Kind::Sim),
    ("kv.peak_reserved_frac", "frac", Kind::Sim),
    ("timeline.utilization", "frac", Kind::Sim),
    ("timeline.stretch_s", "s", Kind::Sim),
    ("timeline.join_wait_s", "s", Kind::Sim),
    ("timeline.contention_s", "s", Kind::Sim),
    ("metrics.summary_ms", "ms", Kind::Host),
    ("serve.protocol.parse_us", "us", Kind::Host),
    ("serve.runtime.write_ms", "ms", Kind::Host),
    ("serve.runtime.read_ms", "ms", Kind::Host),
    ("serve.runtime.replays", "count", Kind::Host),
    ("serve.runtime.memo_hit_rate", "frac", Kind::Host),
    ("serve.net_overhead_ms", "ms", Kind::Host),
    ("serve.net.stalled_replies", "count", Kind::Host),
    ("bench.gen_lag_p95_ms", "ms", Kind::Host),
    ("bench.trace_overhead_pct", "%", Kind::Host),
];

/// The benchmark's declaration, which the metric tables must match.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

fn check_declared() -> Result<(), String> {
    let declared = Json::parse(DECLARED).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(Json::Array(items)) = declared.at(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        let listed: Vec<(Option<&str>, Option<&str>)> = items
            .iter()
            .map(|m| (m.str_at("name"), m.str_at("unit")))
            .collect();
        let ours: Vec<(Option<&str>, Option<&str>)> = table
            .iter()
            .map(|&(name, unit, _)| (Some(name), Some(unit)))
            .collect();
        if listed != ours {
            return Err(format!(
                "the {key} metrics of BENCHMARK.json differ from the program's table"
            ));
        }
    }
    Ok(())
}

/// Metrics a workload set that no table declares, and, for an untraced
/// run, end-to-end metrics it did not set.
fn undeclared_or_missing(report: &Report, trace: bool) -> Vec<&'static str> {
    let declared = |name: &str| END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == name);
    let mut wrong: Vec<&'static str> = report
        .metrics
        .keys()
        .copied()
        .filter(|name| !declared(name))
        .collect();
    if !trace {
        wrong.extend(
            END_TO_END
                .iter()
                .map(|m| m.0)
                .filter(|name| !report.metrics.contains_key(name)),
        );
    }
    wrong
}

/// One workload phase's operation accounting.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub phases: Vec<Phase>,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
    /// The traced run's spans, when there was one.
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn phase(&mut self, name: impl Into<String>, sent: u64, failed: u64) {
        self.phases.push(Phase {
            name: name.into(),
            sent,
            succeeded: sent - failed,
            failed,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `ok_frac` from the phase accounting.
    pub fn set_ok_frac(&mut self) {
        let (sent, failed) = self.totals();
        self.set("ok_frac", 1.0 - failed as f64 / sent.max(1) as f64);
    }

    fn totals(&self) -> (u64, u64) {
        self.phases
            .iter()
            .fold((0, 0), |(s, f), p| (s + p.sent, f + p.failed))
    }
}

/// Set-up time samples, each corrected for the core's speed (see
/// `speed.rs`). Workloads set up several times per run, spread over the
/// run, and report the median.
#[derive(Debug, Default)]
pub struct SetupClock(SpeedClock);

impl SetupClock {
    /// Run `setup` `times` times, timing each, and return the last
    /// set-up's product.
    pub fn time<T>(&mut self, times: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..times.max(1) {
            last = Some(self.0.time(&mut setup));
        }
        last.expect("at least one set-up")
    }

    /// Median speed-corrected set-up time, seconds.
    pub fn median(&self, speed: &SpeedTrace) -> f64 {
        median(&self.0.corrected(speed)) / 1e3
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check_declared() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    // Every thread of the run shares one CPU with the speed sampler.
    let cpu = match speed::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let run = match args.workload.as_str() {
        "paper_interactive" => paper::run,
        "fleet_crash" => fleet::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let mut report = match run(args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    match peak_rss_mb() {
        Ok(mb) => report.set("peak_rss_mb", mb),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    report.set_ok_frac();
    let wrong = undeclared_or_missing(&report, args.trace);
    if !wrong.is_empty() {
        eprintln!(
            "perfbench: {} set undeclared or left out end-to-end metrics: {}",
            args.workload,
            wrong.join(", ")
        );
        std::process::exit(1);
    }

    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "== perfbench {} seed={} seconds={} trace={} cpu={cpu}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    for line in &report.notes {
        println!("   {line}");
    }
    println!("-- phases (operations sent / succeeded / failed)");
    for p in &report.phases {
        println!(
            "   {:<28} {:>7} / {:>7} / {:>5}",
            p.name, p.sent, p.succeeded, p.failed
        );
    }
    println!("-- checks");
    for (what, ok) in &report.checks {
        println!("   [{}] {what}", if *ok { "ok" } else { "FAIL" });
    }
    if let Some(tracer) = &report.tracer {
        println!("-- spans (count, total ms, self ms)");
        for (name, a) in tracer.aggregates() {
            println!(
                "   {name:<28} {:>8} {:>12.3} {:>12.3}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("   spans written to {}", path.display());
    }
    println!(
        "-- metrics ({})",
        if args.trace {
            "per layer"
        } else {
            "end to end"
        }
    );
    let mut json_metrics = Vec::new();
    for &(name, unit, kind) in expected {
        // A layer this workload never reaches reports 0; every
        // end-to-end metric is set (checked above).
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("   {name:<28} {value:>16.6} {unit:<6} {}", kind.label());
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            fmt_num(value)
        ));
    }
    let correct = report.checks.iter().all(|(_, ok)| *ok);
    let (attempted, failed) = report.totals();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json_metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
