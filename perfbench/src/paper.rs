//! `paper_interactive`: the Fig. 12 grid at batch size 1.
//!
//! Three model pairings × AIME-2024/AMC-2023 × n ∈ {8, 32, 128, 512}
//! beam search on an RTX 4090, with the paper's memory fractions and
//! problems drawn from the seed. Every problem is served by FastTTS and
//! by the vLLM baseline through `TtsServer::serve`. No scheduler,
//! fleet or serve code runs here.

use std::time::Instant;

use ftts_bench::{n_grid, pairings, problems_for, server_pair};
use ftts_core::{ServeOutcome, StepStatus, TtsServer};
use ftts_hw::GpuDevice;
use ftts_metrics::{LatencyBreakdown, Summary};
use ftts_model::ProblemSpec;
use ftts_search::{make_driver, SearchKind};
use ftts_workload::Dataset;

use crate::speed::{SpeedClock, SpeedSampler};
use crate::trace::{span_if, Overhead, Tracer};
use crate::{median, Report, SetupClock};

/// The paper's headline (Fig. 12): geomean 2.2x, range 1.2x–5.4x.
const PAPER_GEOMEAN: f64 = 2.2;
/// Set-ups timed before each pass.
const SETUPS_PER_PASS: usize = 3;
/// The set-up's warm-up: this many fixed AMC-2023 problems at n = 8.
const WARMUP_PROBLEMS: usize = 8;
const WARMUP_N: usize = 8;
/// Problems per cell, as a multiple of the Fig. 12 bench's schedule
/// (4, 3, 2, 1 problems at n = 8, 32, 128, 512): enough that the
/// FastTTS latency p95 rests on 240 requests and seed-to-seed spread
/// stays small.
const PROBLEM_SCALE: usize = 4;
/// Branching factor of the beam-search driver (`TtsServer::serve`'s).
const BRANCH: usize = 4;

struct Cell {
    n: usize,
    problems: Vec<ProblemSpec>,
    base: TtsServer,
    fast: TtsServer,
}

/// Every simulated value of a pass, bit-exact: answer, goodput and
/// latency of each request.
type Fingerprint = Vec<(Option<u32>, u64, u64)>;

/// One grid pass: per cell, per problem, (vLLM, FastTTS) outcomes. Only
/// the first pass keeps its outcomes; later ones keep the fingerprint,
/// so the peak RSS does not grow with the number of passes.
struct Pass {
    /// Host time of the pass's serves, each corrected for the core's
    /// speed; `None` for a traced pass.
    clock: Option<SpeedClock>,
    serves: u64,
    print: Fingerprint,
    out: Vec<Vec<(ServeOutcome, ServeOutcome)>>,
}

impl Pass {
    fn new(
        clock: Option<SpeedClock>,
        serves: u64,
        out: Vec<Vec<(ServeOutcome, ServeOutcome)>>,
    ) -> Self {
        let print = out
            .iter()
            .flatten()
            .flat_map(|(b, f)| [b, f])
            .map(|o| (o.answer, o.goodput().to_bits(), o.latency().to_bits()))
            .collect();
        Self {
            clock,
            serves,
            print,
            out,
        }
    }

    fn without_outcomes(self) -> Self {
        Self {
            out: Vec::new(),
            ..self
        }
    }
}

fn build(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for pairing in pairings() {
        for dataset in [Dataset::Aime2024, Dataset::Amc2023] {
            let (base, fast) = server_pair(GpuDevice::rtx4090(), pairing.clone());
            for n in n_grid() {
                cells.push(Cell {
                    n,
                    problems: dataset
                        .problems(problems_for(dataset, n, seed).len() * PROBLEM_SCALE, seed),
                    base: base.clone(),
                    fast: fast.clone(),
                });
            }
        }
    }
    cells
}

fn serve(server: &TtsServer, p: &ProblemSpec, n: usize) -> Result<ServeOutcome, String> {
    server
        .serve(p, n, SearchKind::BeamSearch)
        .map_err(|e| format!("serve: {e}"))
}

/// Untraced grid pass; every serve is one unit of the speed clock.
fn pass(cells: &[Cell]) -> Result<Pass, String> {
    let mut clock = SpeedClock::default();
    let mut out = Vec::with_capacity(cells.len());
    let mut serves = 0;
    for c in cells {
        let mut row = Vec::with_capacity(c.problems.len());
        for p in &c.problems {
            let base = clock.time(|| serve(&c.base, p, c.n))?;
            let fast = clock.time(|| serve(&c.fast, p, c.n))?;
            row.push((base, fast));
            serves += 2;
        }
        out.push(row);
    }
    Ok(Pass::new(Some(clock), serves, out))
}

/// Drive one request through `begin_request` → `step` → `finish`.
/// With a tracer, each call sits in a span inside one `engine.resume`
/// span for the request.
fn stepped(
    t: Option<&mut Tracer>,
    server: &TtsServer,
    p: &ProblemSpec,
    n: usize,
    req: u64,
) -> Result<ServeOutcome, String> {
    let body = |mut t: Option<&mut Tracer>| -> Result<ServeOutcome, String> {
        let mut driver = make_driver(SearchKind::BeamSearch, n, BRANCH);
        let mut run = span_if(&mut t, "engine.begin", req, || {
            server.begin_request(p, n, driver.as_mut(), f64::INFINITY, None)
        })
        .map_err(|e| format!("begin_request: {e}"))?;
        loop {
            let status = span_if(&mut t, "engine.step", req, || run.step(driver.as_mut()))
                .map_err(|e| format!("step: {e}"))?;
            if status == StepStatus::Finished {
                break;
            }
        }
        let stats = span_if(&mut t, "engine.finish", req, || run.finish());
        let answer = ftts_metrics::top1_majority(&stats.answers());
        Ok(ServeOutcome { stats, answer })
    };
    match t {
        Some(t) => t.span("engine.resume", req, |t| body(Some(t))),
        None => body(None),
    }
}

/// Traced grid pass: spans around each `serve`, then the same request
/// again through the resumable-run API, traced and untraced, both of
/// which must match `serve` bit for bit. The two resumable runs give
/// the tracing overhead.
fn traced_pass(
    cells: &[Cell],
    t: &mut Tracer,
    overhead: &mut Overhead,
    report: &mut Report,
) -> Result<Pass, String> {
    let mut out = Vec::with_capacity(cells.len());
    let mut serves = 0;
    let mut mismatched = 0;
    let mut req = 0u64;
    for c in cells {
        let mut row = Vec::with_capacity(c.problems.len());
        for p in &c.problems {
            let mut pair = Vec::with_capacity(2);
            for server in [&c.base, &c.fast] {
                req += 1;
                let served = t.span("engine.serve", req, |_| serve(server, p, c.n))?;
                let ((traced, _), (plain, _)) = overhead.both(req.is_multiple_of(2), |traced| {
                    stepped(traced.then_some(&mut *t), server, p, c.n, req)
                });
                for resumed in [traced?, plain?] {
                    mismatched += usize::from(format!("{resumed:?}") != format!("{served:?}"));
                }
                pair.push(served);
                serves += 1;
            }
            let fast = pair.pop().expect("two outcomes");
            let base = pair.pop().expect("two outcomes");
            row.push((base, fast));
        }
        out.push(row);
    }
    report.check(
        format!("begin_request/step/finish, traced and untraced, equals serve bit for bit ({serves} requests, {mismatched} runs differ)"),
        mismatched == 0,
    );
    // Host time of traced passes is read from the spans, not the pass.
    Ok(Pass::new(None, serves, out).without_outcomes())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up: build the grid's inputs and servers, then warm up by
    // serving a fixed set of problems (not drawn from the seed, so the
    // set-up work is the same on every seed) at n = 8 with each system.
    // Repeated before every pass so the samples span the run.
    let mut setups = SetupClock::default();
    let mut setup = || {
        setups.time(SETUPS_PER_PASS, || -> Result<Vec<Cell>, String> {
            let cells = build(seed);
            let c = &cells[0];
            for p in &Dataset::Amc2023.problems(WARMUP_PROBLEMS, 0) {
                serve(&c.base, p, WARMUP_N)?;
                serve(&c.fast, p, WARMUP_N)?;
            }
            Ok(cells)
        })
    };

    let sampler = SpeedSampler::start();
    let start = Instant::now();
    let mut tracer = trace.then(Tracer::default);
    let mut overhead = Overhead::default();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut cells;
    loop {
        cells = setup()?;
        let p = pass(&cells)?;
        passes.push(if passes.is_empty() {
            p
        } else {
            p.without_outcomes()
        });
        if let Some(t) = tracer.as_mut() {
            traced.push(traced_pass(&cells, t, &mut overhead, &mut report)?);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let speed = sampler.finish()?;
    report.set("setup_s", setups.median(&speed));

    let first = &passes[0].print;
    let serves = passes[0].serves;
    report.phase(
        format!("grid passes x{}", passes.len()),
        serves * passes.len() as u64,
        0,
    );
    report.check(
        format!(
            "all {} untraced passes reproduce the same simulated outcomes",
            passes.len()
        ),
        passes.iter().all(|p| &p.print == first),
    );
    if trace {
        report.phase(
            format!("traced grid passes x{}", traced.len()),
            serves * traced.len() as u64,
            0,
        );
        report.check(
            "traced run's simulated outcomes equal the untraced run's",
            traced.iter().all(|p| &p.print == first),
        );
    }

    let out = &passes[0].out;
    let mut mismatched = 0;
    let mut speedups = Vec::new();
    let mut goodputs = Vec::new();
    let mut latencies = Vec::new();
    let mut buckets = LatencyBreakdown::default();
    let (mut spec_used, mut spec_tokens, mut lookahead) = (0u64, 0u64, 0u64);
    let (mut gen_evicted, mut gen_recomputed, mut ver_recomputed) = (0u64, 0u64, 0u64);
    for (c, row) in cells.iter().zip(out) {
        let (mut bg, mut fg) = (0.0, 0.0);
        for (b, f) in row {
            mismatched += usize::from(b.answer != f.answer);
            bg += b.goodput();
            fg += f.goodput();
            goodputs.push(f.goodput());
            latencies.push(f.latency());
            let bd = f.stats.breakdown();
            buckets.generator += bd.generator;
            buckets.verifier += bd.verifier;
            buckets.recompute += bd.recompute;
            spec_used += f.stats.spec.spec_tokens_used;
            spec_tokens += f.stats.spec.spec_tokens;
            lookahead += f.stats.spec.lookahead_hits;
            if c.n == 512 {
                gen_evicted += f.stats.gen_cache.evicted_tokens;
                gen_recomputed += f.stats.gen_cache.recomputed_tokens;
                ver_recomputed += f.stats.ver_cache.recomputed_tokens;
            }
        }
        speedups.push(fg / bg);
    }
    report.check(
        format!("FastTTS answer equals the vLLM answer for every problem ({} problems, {mismatched} differ)", goodputs.len()),
        mismatched == 0,
    );
    let geomean = Summary::geomean(&speedups);
    let lat = Summary::of(&latencies);
    let per_req = |ms: &dyn Fn(&SpeedClock) -> Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .filter_map(|p| {
                let c = p.clock.as_ref()?;
                Some(ms(c).iter().sum::<f64>() / p.serves as f64)
            })
            .collect()
    };
    let pass_ms = per_req(&|c| c.corrected(&speed));
    let raw_ms = per_req(&SpeedClock::raw);
    report.set("host_ms_per_req", median(&pass_ms));
    report.set(
        "sim_goodput_tok_s",
        goodputs.iter().sum::<f64>() / goodputs.len() as f64,
    );
    report.set("sim_latency_p50_s", lat.p50);
    report.set("sim_latency_p95_s", lat.p95);
    let list = |v: &[f64]| {
        v.iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "host ms per request by pass, speed-corrected: {}; wall-clock: {}; core slowdown (median over the run): {:.3}",
        list(&pass_ms),
        list(&raw_ms),
        speed.median()
    ));
    report.note(format!(
        "grid: {} cells, {} problems, {} serves per pass; {} passes in {:.1} s",
        cells.len(),
        goodputs.len(),
        serves,
        passes.len(),
        start.elapsed().as_secs_f64()
    ));
    report.note(format!(
        "sim_speedup_vs_vllm {geomean:.3}x (geomean over cells, range {:.2}x-{:.2}x) vs paper {PAPER_GEOMEAN}x (range 1.2x-5.4x): relative error {:+.1}%",
        speedups.iter().copied().fold(f64::INFINITY, f64::min),
        speedups.iter().copied().fold(0.0, f64::max),
        (geomean / PAPER_GEOMEAN - 1.0) * 100.0
    ));
    report.note("the cost model is otherwise unvalidated against hardware");

    if let Some(tracer) = tracer {
        let agg = tracer.aggregates();
        let steps = agg.get("engine.step").copied().unwrap_or_default();
        report.set("sim_speedup_vs_vllm", geomean);
        report.set(
            "engine.step_us",
            steps.total_ns as f64 / 1e3 / steps.count.max(1) as f64,
        );
        report.set("engine.steps", steps.count as f64 / traced.len() as f64);
        report.set("engine.gen_s", buckets.generator);
        report.set("engine.ver_s", buckets.verifier);
        report.set("engine.recompute_s", buckets.recompute);
        report.set(
            "spec.efficiency",
            spec_used as f64 / spec_tokens.max(1) as f64,
        );
        report.set("spec.lookahead_hits", lookahead as f64);
        report.set("kv.gen.evicted_tokens", gen_evicted as f64);
        report.set("kv.gen.recomputed_tokens", gen_recomputed as f64);
        report.set("kv.ver.recomputed_tokens", ver_recomputed as f64);
        report.set("bench.trace_overhead_pct", overhead.pct());
        report.tracer = Some(tracer);
    }
    Ok(report)
}
