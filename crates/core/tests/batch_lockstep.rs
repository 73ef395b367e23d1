//! Lockstep equivalence: the scheduler kernel in lockstep mode
//! (`EventConfig::lockstep`) with `max_batch = 1` and mid-flight
//! admission disabled must reproduce `ServerSim::run` bit-identically —
//! outcomes, latencies and eviction stats — over the existing arrival
//! fixtures. This pins the kernel to the independent FIFO path before
//! any batching is turned on.

mod golden;

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, ServerSim, TimelineConfig, TimelineServerSim, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

fn server(seed: u64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s
}

fn lockstep(
    server: TtsServer,
    n: usize,
    config: BatchConfig,
    arrivals: &[RequestArrival],
) -> BatchRun {
    TimelineServerSim::new(
        server,
        n,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(EventConfig::lockstep(config)),
    )
    .run(arrivals)
    .expect("batched run")
}

fn check_pattern_with(seed: u64, arrivals: &[RequestArrival], n: usize, config: BatchConfig) {
    let fifo = ServerSim::new(server(seed), n, SearchKind::BeamSearch)
        .run(arrivals)
        .expect("fifo run");
    let batched = lockstep(server(seed), n, config, arrivals);
    assert_eq!(
        golden::served_fingerprint(&fifo),
        golden::served_fingerprint(&batched.served),
        "batch-1 lockstep must reproduce ServerSim bit for bit"
    );
    assert_eq!(batched.preemptions, 0, "batch-1 FIFO never preempts");
    assert!(batched.peak_reserved_bytes <= batched.pool_bytes);
}

fn check_pattern(seed: u64, arrivals: &[RequestArrival], n: usize) {
    check_pattern_with(seed, arrivals, n, BatchConfig::fifo());
}

#[test]
fn lockstep_burst_fixture() {
    let problems = Dataset::Amc2023.problems(3, 9);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    check_pattern(0, &arrivals, 8);
}

#[test]
fn lockstep_poisson_fixture() {
    let problems = Dataset::Amc2023.problems(4, 21);
    let arrivals = ArrivalPattern::Poisson { rate: 0.05 }.schedule(&problems, 5);
    check_pattern(3, &arrivals, 8);
}

#[test]
fn lockstep_interactive_fixture() {
    let problems = Dataset::Aime2024.problems(2, 13);
    let arrivals = ArrivalPattern::Interactive.schedule(&problems, 0);
    check_pattern(7, &arrivals, 8);
}

#[test]
fn lockstep_uniform_overload_fixture() {
    // Overload: arrivals far faster than service. FIFO queues them; the
    // batch-1 scheduler must queue identically.
    let problems = Dataset::Amc2023.problems(3, 33);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    check_pattern(11, &arrivals, 8);
}

#[test]
fn lockstep_survives_the_phase_split_extras_at_batch1() {
    // The PR-3 features must be no-ops at batch 1: a fused sweep over
    // one participant degenerates to that request's own solo sweep, and
    // a demand-proportional rebalance of a single holder hands it the
    // whole pool — exactly the equal split. Bit-for-bit both ways.
    let problems = Dataset::Amc2023.problems(3, 9);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let fused = BatchConfig {
        fused_verify: true,
        ..BatchConfig::fifo()
    };
    check_pattern_with(0, &arrivals, 8, fused);
    let elastic = BatchConfig {
        fused_verify: true,
        demand_shares: true,
        ..BatchConfig::fifo()
    };
    check_pattern_with(0, &arrivals, 8, elastic);
}

#[test]
fn lockstep_holds_for_baseline_server_too() {
    // The vLLM baseline path (random order, static split, no spec).
    let problems = Dataset::Amc2023.problems(3, 17);
    let arrivals = ArrivalPattern::Burst { at: 2.0 }.schedule(&problems, 0);
    let base = TtsServer::vllm_baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    let fifo = ServerSim::new(base.clone(), 8, SearchKind::BeamSearch)
        .run(&arrivals)
        .expect("fifo");
    let batched = lockstep(base, 8, BatchConfig::fifo(), &arrivals);
    assert_eq!(
        golden::served_fingerprint(&fifo),
        golden::served_fingerprint(&batched.served)
    );
}
