//! Cross-request verifier co-batching and elastic-share regressions:
//! the fused-sweep time attribution audit (shared kernel seconds are
//! never double-counted across requests), the opt-in First Finish cut,
//! and demand-proportional shares easing preemption pressure.

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, ServerSim, TimelineConfig, TimelineServerSim, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

/// The scheduler kernel in lockstep mode (an infinite co-batch window).
fn lockstep(server: TtsServer, n: usize, config: BatchConfig) -> TimelineServerSim {
    TimelineServerSim::new(
        server,
        n,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(EventConfig::lockstep(config)),
    )
}

fn overload_arrivals(count: usize, seed: u64) -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(count, seed);
    ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0)
}

fn run_policy(config: BatchConfig, arrivals: &[RequestArrival], n: usize) -> BatchRun {
    lockstep(server(7, 0.9), n, config)
        .run(arrivals)
        .expect("run")
}

/// Summed per-request attributed verifier seconds must equal the
/// device's verifier busy seconds: under serialization every sweep is
/// attributed to exactly its owner, under fusion each participant books
/// only its share of the shared kernel.
fn assert_no_double_count(run: &BatchRun) {
    let attributed: f64 = run
        .served
        .iter()
        .map(|r| r.outcome.stats.breakdown().verifier)
        .sum();
    assert!(run.ver_busy_secs > 0.0, "requests verified something");
    let rel = (attributed - run.ver_busy_secs).abs() / run.ver_busy_secs;
    assert!(
        rel < 1e-9,
        "attributed verifier seconds {} must equal device busy seconds {} (rel err {rel})",
        attributed,
        run.ver_busy_secs
    );
}

#[test]
fn verifier_attribution_is_conserved_serialized_and_fused() {
    let arrivals = overload_arrivals(5, 43);
    let serialized = run_policy(BatchConfig::continuous(3), &arrivals, 8);
    let fused = run_policy(BatchConfig::fused(3), &arrivals, 8);
    assert_no_double_count(&serialized);
    assert_no_double_count(&fused);
    // Fusing packs more sequences into fewer shared sweeps.
    assert!(fused.ver_sweeps < serialized.ver_sweeps);
    let occ = |r: &BatchRun| r.ver_seqs as f64 / r.ver_sweeps as f64;
    assert!(
        occ(&fused) > occ(&serialized),
        "fused occupancy {} must beat serialized {}",
        occ(&fused),
        occ(&serialized)
    );
    let fs = fused.stream_summary();
    assert!((fs.verifier_occupancy - occ(&fused)).abs() < 1e-12);
    assert!(fs.verifier_goodput > 0.0 && fs.generator_goodput > 0.0);
    // Fusion moves clocks only: outcomes stay schedule-invariant.
    for (a, b) in serialized.served.iter().zip(&fused.served) {
        assert_eq!(a.outcome.answer, b.outcome.answer);
        assert_eq!(a.accepted_tokens(), b.accepted_tokens());
    }
}

#[test]
fn first_finish_cut_finishes_streams_early_without_breaking_anyone() {
    let arrivals = overload_arrivals(4, 61);
    let base = run_policy(BatchConfig::continuous(2), &arrivals, 8);
    let cut = run_policy(
        BatchConfig::continuous(2).with_first_finish(0.0),
        &arrivals,
        8,
    );
    assert_eq!(cut.served.len(), base.served.len());
    let mut cuts = 0u32;
    for r in &cut.served {
        assert!(
            !r.outcome.stats.beams.is_empty(),
            "the accepted beam survives"
        );
        cuts += r.outcome.stats.first_finish_cuts;
    }
    assert!(cuts > 0, "bar 0.0 must fire on the first verified beam");
    assert!(
        cut.makespan() < base.makespan(),
        "cancelled siblings release the device early: {} vs {}",
        cut.makespan(),
        base.makespan()
    );
    let (c, b) = (cut.stream_summary(), base.stream_summary());
    assert!(c.total_accepted_tokens <= b.total_accepted_tokens);
    assert!(c.latency.mean < b.latency.mean);
    // Non-opted runs are untouched by the feature's existence.
    for r in &base.served {
        assert_eq!(r.outcome.stats.first_finish_cuts, 0);
    }
}

#[test]
fn demand_shares_ease_preemption_pressure_at_the_same_pool_size() {
    // The pressured fixture: several deep searches contending for a
    // tight pool. Equal shares starve the deepest request into
    // swap-out; demand-proportional shares size it up instead.
    let problems = Dataset::Aime2024.problems(4, 51);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let equal = lockstep(server(13, 0.30), 24, BatchConfig::continuous(4))
        .run(&arrivals)
        .expect("equal-share run");
    let demand_cfg = BatchConfig {
        demand_shares: true,
        ..BatchConfig::continuous(4)
    };
    let demand = lockstep(server(13, 0.30), 24, demand_cfg)
        .run(&arrivals)
        .expect("demand-share run");
    assert!(equal.preemptions > 0, "the fixture must actually pressure");
    assert!(
        demand.preemptions <= equal.preemptions,
        "demand shares must not preempt more: {} vs {}",
        demand.preemptions,
        equal.preemptions
    );
    assert!(demand.peak_reserved_bytes <= demand.pool_bytes);
    // Elastic shares move memory and clocks, never outcomes.
    let fifo = ServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch)
        .run(&arrivals)
        .expect("fifo replay");
    for (d, f) in demand.served.iter().zip(&fifo) {
        assert_eq!(d.outcome.answer, f.outcome.answer);
        assert_eq!(d.accepted_tokens(), f.accepted_tokens());
    }
}
