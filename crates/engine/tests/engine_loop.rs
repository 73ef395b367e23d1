//! End-to-end tests of the serving loop with a minimal beam-search driver.

use ftts_engine::{
    Engine, EngineConfig, FifoOrder, ModelPairing, RunStats, ScoredBeam, SearchDriver, SelectCtx,
    SpecConfig, StaticSplitPlanner, StepStatus,
};
use ftts_hw::GpuDevice;
use ftts_workload::Dataset;

/// Plain beam search: keep the top n/B beams, expand each into B children.
#[derive(Clone)]
struct PlainBeam {
    n: usize,
    b: usize,
}

impl SearchDriver for PlainBeam {
    fn branching(&self) -> usize {
        self.b
    }

    fn select(
        &mut self,
        frontier: &[ScoredBeam],
        _ctx: &SelectCtx,
    ) -> Vec<(ftts_engine::BeamId, usize)> {
        let mut ranked: Vec<&ScoredBeam> = frontier.iter().collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let keep = (self.n / self.b).max(1).min(ranked.len());
        ranked[..keep].iter().map(|s| (s.id, self.b)).collect()
    }

    fn box_clone(&self) -> Box<dyn SearchDriver> {
        Box::new(self.clone())
    }
}

fn engine(spec: SpecConfig, fraction: f64, seed: u64, trace: bool) -> Engine {
    let mut cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    cfg.spec = spec;
    // LookAhead piggybacks on the verifier's cross-iteration cache.
    cfg.ver_prefix_caching = spec.enabled && spec.lookahead;
    cfg.memory_fraction = fraction;
    cfg.seed = seed;
    cfg.trace = trace;
    Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner))
}

fn problem(idx: usize) -> ftts_model::ProblemSpec {
    Dataset::Aime2024.problems(idx + 1, 42)[idx]
}

#[test]
fn run_completes_and_records_outcomes() {
    let mut eng = engine(SpecConfig::disabled(), 0.9, 1, false);
    let mut driver = PlainBeam { n: 16, b: 4 };
    let stats = eng.run(&problem(0), 16, &mut driver).unwrap();
    assert!(!stats.beams.is_empty(), "some beams must complete");
    assert!(stats.latency() > 0.0);
    assert!(stats.goodput() > 0.0);
    assert!(stats.iterations > 0);
    assert!(stats.decoded_tokens > 0);
    assert!(stats.verified_tokens > 0);
    // Generator and verifier both contribute latency.
    assert!(stats.breakdown().generator > 0.0);
    assert!(stats.breakdown().verifier > 0.0);
}

#[test]
fn runs_are_deterministic() {
    let collect = || {
        let mut eng = engine(SpecConfig::disabled(), 0.9, 7, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        eng.run(&problem(1), 8, &mut driver).unwrap()
    };
    let a = collect();
    let b = collect();
    assert_eq!(a.beams.len(), b.beams.len());
    assert_eq!(a.latency(), b.latency());
    for (x, y) in a.beams.iter().zip(&b.beams) {
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(x.answer, y.answer);
        assert_eq!(x.score, y.score);
    }
}

#[test]
fn speculation_preserves_the_reasoning_tree_exactly() {
    // The central algorithmic-equivalence property (paper Sec. 4.1):
    // identical selected paths, answers and scores; only timing differs.
    let run = |spec: SpecConfig| {
        let mut eng = engine(spec, 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(2), 16, &mut driver).unwrap()
    };
    let base = run(SpecConfig::disabled());
    let fast = run(SpecConfig::fasttts_default());
    assert_eq!(base.beams.len(), fast.beams.len());
    for (x, y) in base.beams.iter().zip(&fast.beams) {
        assert_eq!(x.tokens, y.tokens, "path lengths must match");
        assert_eq!(x.answer, y.answer, "answers must match");
        assert_eq!(x.score, y.score, "scores must match");
    }
    assert!(fast.spec.spec_tokens > 0, "speculation must have happened");
    assert!(
        fast.latency() < base.latency(),
        "speculation should reduce latency: {} vs {}",
        fast.latency(),
        base.latency()
    );
}

#[test]
fn lookahead_skips_verifications() {
    let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 3, false);
    let mut driver = PlainBeam { n: 32, b: 4 };
    let stats = eng.run(&problem(0), 32, &mut driver).unwrap();
    assert!(
        stats.spec.lookahead_hits > 0,
        "some steps should be pre-verified"
    );
}

#[test]
fn memory_pressure_causes_evictions_but_completes() {
    let mut eng = engine(SpecConfig::disabled(), 0.32, 5, false);
    let mut driver = PlainBeam { n: 64, b: 4 };
    let stats = eng.run(&problem(0), 64, &mut driver).unwrap();
    assert!(
        stats.gen_cache.evicted_blocks > 0,
        "64 beams at 40% memory must evict"
    );
    assert!(
        stats.breakdown().recompute > 0.0,
        "evictions cost recompute time"
    );
    assert!(!stats.beams.is_empty());
}

#[test]
fn preemption_deadline_disables_speculation() {
    let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 3, false);
    let mut driver = PlainBeam { n: 16, b: 4 };
    let stats = eng
        .run_with_deadline(&problem(0), 16, &mut driver, 0.0)
        .unwrap();
    assert_eq!(
        stats.spec.spec_tokens, 0,
        "deadline at t=0 forbids all speculation"
    );
}

#[test]
fn trace_records_both_phases() {
    let mut eng = engine(SpecConfig::disabled(), 0.9, 1, true);
    let mut driver = PlainBeam { n: 8, b: 4 };
    let stats = eng.run(&problem(0), 8, &mut driver).unwrap();
    let trace = stats.trace.expect("trace enabled");
    assert!(!trace.is_empty());
    assert!(trace.phase_seconds(ftts_hw::Phase::Generation) > 0.0);
    assert!(trace.phase_seconds(ftts_hw::Phase::Verification) > 0.0);
    // Prefill (verification) achieves higher compute utilization than
    // bandwidth-bound decode — the contrast of Fig. 4.
    let gen_util = trace.mean_util(Some(ftts_hw::Phase::Generation));
    let ver_util = trace.mean_util(Some(ftts_hw::Phase::Verification));
    assert!(
        ver_util > gen_util,
        "verify {ver_util} vs generate {gen_util}"
    );
}

#[test]
fn larger_n_generates_more_tokens() {
    let run_tokens = |n: usize| {
        let mut eng = engine(SpecConfig::disabled(), 0.9, 1, false);
        let mut driver = PlainBeam { n, b: 4 };
        eng.run(&problem(3), n, &mut driver).unwrap().decoded_tokens
    };
    assert!(run_tokens(32) > 2 * run_tokens(8));
}

fn assert_stats_identical(a: &RunStats, b: &RunStats) {
    assert_eq!(a.latency(), b.latency());
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.decoded_tokens, b.decoded_tokens);
    assert_eq!(a.verified_tokens, b.verified_tokens);
    assert_eq!(a.gen_cache, b.gen_cache);
    assert_eq!(a.ver_cache, b.ver_cache);
    assert_eq!(a.beams.len(), b.beams.len());
    for (x, y) in a.beams.iter().zip(&b.beams) {
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(x.completion_time, y.completion_time);
        assert_eq!(x.answer, y.answer);
        assert_eq!(x.score, y.score);
    }
}

#[test]
fn stepped_run_matches_one_shot_run() {
    // `Engine::begin` + `step` loop is the same state machine `run`
    // drives; decomposing it must not change a single bit.
    let one_shot = {
        let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(2), 16, &mut driver).unwrap()
    };
    let stepped = {
        let eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        let mut run = eng
            .begin(&problem(2), 16, &mut driver, f64::INFINITY, None)
            .unwrap();
        let mut steps = 0u32;
        while run.step(&mut driver).unwrap() == StepStatus::Running {
            steps += 1;
        }
        assert!(steps > 0, "multi-iteration request");
        assert!(run.is_finished());
        run.finish()
    };
    assert_stats_identical(&one_shot, &stepped);
}

#[test]
fn split_phases_match_step_bit_for_bit() {
    // `step` is a wrapper over plan_iteration / take_verify_batch /
    // apply_verify_results with solo-costed sweeps; driving the phases
    // explicitly (as a cross-request scheduler does) must not change a
    // single bit.
    use ftts_engine::{VerifyCharge, VerifyChunk};
    let stepped = {
        let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(2), 16, &mut driver).unwrap()
    };
    let phased = {
        let eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        let mut run = eng
            .begin(&problem(2), 16, &mut driver, f64::INFINITY, None)
            .unwrap();
        let mut sweeps = 0usize;
        while !run.is_finished() {
            if run.plan_iteration(&mut driver).unwrap().is_finished() {
                break;
            }
            let chunks: Vec<VerifyChunk> = run.take_verify_batch().to_vec();
            let charges: Vec<VerifyCharge> = chunks
                .iter()
                .map(|c| VerifyCharge::full(&c.solo_cost(run.verifier_roofline())))
                .collect();
            sweeps += charges.len();
            if run
                .apply_verify_results(&mut driver, &charges)
                .unwrap()
                .is_finished()
            {
                break;
            }
        }
        assert!(sweeps > 0, "the request actually verified something");
        run.finish()
    };
    assert_stats_identical(&stepped, &phased);
    assert_eq!(stepped.ver_sweeps, phased.ver_sweeps);
    assert_eq!(stepped.completion.breakdown, phased.completion.breakdown);
}

#[test]
fn split_phases_are_reentrant_across_out_of_order_costing() {
    // An event-driven scheduler interleaves the split phases of
    // different requests in launch order, not admission order: request
    // B may plan, cost and commit a whole iteration while request A
    // sits between its own plan and commit. Each run owns its phase
    // position, so any interleaving must leave both runs bit-identical
    // to stepping them alone.
    use ftts_engine::{RunPhase, VerifyCharge, VerifyChunk};
    let solo = |seed_problem: usize| {
        let mut eng = engine(SpecConfig::fasttts_default(), 0.9, 11, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        eng.run(&problem(seed_problem), 8, &mut driver).unwrap()
    };
    let (solo_a, solo_b) = (solo(2), solo(5));

    let mut driver_a = PlainBeam { n: 8, b: 4 };
    let mut driver_b = PlainBeam { n: 8, b: 4 };
    let mut run_a = engine(SpecConfig::fasttts_default(), 0.9, 11, false)
        .begin(&problem(2), 8, &mut driver_a, f64::INFINITY, None)
        .unwrap();
    let mut run_b = engine(SpecConfig::fasttts_default(), 0.9, 11, false)
        .begin(&problem(5), 8, &mut driver_b, f64::INFINITY, None)
        .unwrap();
    let cost_and_commit = |run: &mut ftts_engine::RequestRun, driver: &mut PlainBeam| {
        let chunks: Vec<VerifyChunk> = run.take_verify_batch().to_vec();
        let charges: Vec<VerifyCharge> = chunks
            .iter()
            .map(|c| VerifyCharge::full(&c.solo_cost(run.verifier_roofline())))
            .collect();
        run.apply_verify_results(driver, &charges).unwrap();
    };
    let mut interleaved = 0u32;
    while !(run_a.is_finished() && run_b.is_finished()) {
        // A plans, then B runs 1-2 complete iterations *inside* A's
        // open iteration, then A finishes costing — out-of-order
        // costing across requests.
        let a_open =
            !run_a.is_finished() && !run_a.plan_iteration(&mut driver_a).unwrap().is_finished();
        if a_open {
            assert_eq!(run_a.run_phase(), RunPhase::Generated);
        }
        for _ in 0..2 {
            if !run_b.is_finished() && !run_b.plan_iteration(&mut driver_b).unwrap().is_finished() {
                cost_and_commit(&mut run_b, &mut driver_b);
                assert_eq!(run_b.run_phase(), RunPhase::Ready);
            }
        }
        if a_open {
            cost_and_commit(&mut run_a, &mut driver_a);
            interleaved += 1;
        }
    }
    assert!(interleaved > 0, "iterations actually interleaved");
    assert_stats_identical(&solo_a, &run_a.finish());
    assert_stats_identical(&solo_b, &run_b.finish());
}

#[test]
fn first_finish_cut_prunes_siblings_and_finishes_early() {
    let full = {
        let mut eng = engine(SpecConfig::disabled(), 0.9, 5, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        eng.run(&problem(0), 16, &mut driver).unwrap()
    };
    let cut = {
        let eng = engine(SpecConfig::disabled(), 0.9, 5, false);
        let mut driver = PlainBeam { n: 16, b: 4 };
        let mut run = eng
            .begin(&problem(0), 16, &mut driver, f64::INFINITY, None)
            .unwrap();
        while !run.is_finished() {
            run.step(&mut driver).unwrap();
            // Bar 0.0: cut as soon as the first verified beam completes.
            if !run.is_finished() && run.first_finish_cut(0.0) {
                break;
            }
        }
        run.finish()
    };
    assert!(!cut.beams.is_empty(), "the accepted beam survives the cut");
    assert!(
        cut.beams.len() < full.beams.len(),
        "siblings were cancelled: {} vs {}",
        cut.beams.len(),
        full.beams.len()
    );
    assert_eq!(cut.first_finish_cuts, 1);
    assert_eq!(full.first_finish_cuts, 0, "non-opted runs never cut");
    assert!(
        cut.latency() < full.latency(),
        "cutting siblings finishes the request early"
    );
    // The beams that did complete are the same beams the full run
    // completed first — the cut cancels futures, never rewrites pasts.
    for (c, f) in cut.beams.iter().zip(&full.beams) {
        assert_eq!(c.tokens, f.tokens);
        assert_eq!(c.answer, f.answer);
        assert_eq!(c.score, f.score);
    }
}

#[test]
fn interleaved_requests_share_no_state() {
    // Two requests served step-by-step by interleaving on one simulated
    // device: each run owns its Scratch, caches and policy state, so
    // interleaving must reproduce the isolated runs exactly — no
    // cross-request leakage through recycled containers.
    let standalone = |idx: usize, seed: u64| {
        let mut eng = engine(SpecConfig::disabled(), 0.9, seed, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        eng.run(&problem(idx), 8, &mut driver).unwrap()
    };
    let solo_a = standalone(0, 5);
    let solo_b = standalone(1, 6);

    let mut driver_a = PlainBeam { n: 8, b: 4 };
    let mut driver_b = PlainBeam { n: 8, b: 4 };
    let mut run_a = engine(SpecConfig::disabled(), 0.9, 5, false)
        .begin(&problem(0), 8, &mut driver_a, f64::INFINITY, None)
        .unwrap();
    let mut run_b = engine(SpecConfig::disabled(), 0.9, 6, false)
        .begin(&problem(1), 8, &mut driver_b, f64::INFINITY, None)
        .unwrap();
    let mut interleaves = 0u32;
    while !(run_a.is_finished() && run_b.is_finished()) {
        if !run_a.is_finished() {
            run_a.step(&mut driver_a).unwrap();
        }
        if !run_b.is_finished() {
            run_b.step(&mut driver_b).unwrap();
            interleaves += 1;
        }
    }
    assert!(interleaves > 1, "the runs actually interleaved");
    assert_stats_identical(&solo_a, &run_a.finish());
    assert_stats_identical(&solo_b, &run_b.finish());
}

#[test]
fn co_batched_decode_amortizes_the_weight_sweep() {
    // With co-resident sequences declared, a step takes longer on its
    // own clock (bigger combined batch) but far less than two isolated
    // requests run back to back — the continuous-batching win.
    let run_with_co = |co: usize| {
        let eng = engine(SpecConfig::disabled(), 0.9, 3, false);
        let mut driver = PlainBeam { n: 8, b: 4 };
        let mut run = eng
            .begin(&problem(0), 8, &mut driver, f64::INFINITY, None)
            .unwrap();
        while !run.is_finished() {
            let (seqs, ctx) = run.decode_load();
            run.set_co_batch(co * seqs.max(1), co as u64 * ctx);
            run.step(&mut driver).unwrap();
        }
        run.finish().latency()
    };
    let alone = run_with_co(0);
    let shared = run_with_co(1);
    assert!(shared > alone, "co-batching costs some per-request latency");
    assert!(
        shared < 1.5 * alone,
        "one co-resident clone must cost far less than a second pass: {shared} vs {alone}"
    );
}

#[test]
fn preempt_swaps_out_and_resumes_without_losing_tokens() {
    let eng = engine(SpecConfig::disabled(), 0.9, 7, false);
    let mut driver = PlainBeam { n: 8, b: 4 };
    let mut run = eng
        .begin(&problem(1), 8, &mut driver, f64::INFINITY, None)
        .unwrap();
    run.step(&mut driver).unwrap();
    let tokens_before = run.decoded_tokens();
    let clock_before = run.clock();
    let bytes = run.preempt();
    assert!(bytes > 0, "mid-flight KV must be resident to swap out");
    // The scheduler parks it, then resumes later at a new global time.
    run.sync_clock_to(clock_before + 5.0);
    while !run.is_finished() {
        run.step(&mut driver).unwrap();
    }
    let stats = run.finish();
    assert!(stats.decoded_tokens > tokens_before, "run kept generating");
    assert!(stats.latency() > clock_before + 5.0);
    assert_eq!(
        stats.completion.breakdown.idle, 5.0,
        "the preemption gap is accounted as idle time"
    );
    assert!(!stats.beams.is_empty());
}

#[test]
fn infeasible_memory_reports_path_exceeds() {
    let mut cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    // Weights + reserve exceed the usable fraction: KV budget is zero.
    cfg.memory_fraction = 0.26;
    let mut eng = Engine::new(cfg, Box::new(FifoOrder), Box::new(StaticSplitPlanner));
    let mut driver = PlainBeam { n: 8, b: 4 };
    let err = eng.run(&problem(0), 8, &mut driver);
    assert!(err.is_err(), "a ~0-byte KV budget cannot serve");
}
