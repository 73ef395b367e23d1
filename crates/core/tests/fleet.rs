//! Fleet-serving anchors (PR 8).
//!
//! * A 1-device fleet with the pass-through router is **bit-identical**
//!   to a bare scheduler-kernel run — answers, tokens, instants and breakdown
//!   buckets — fault-free, under a (crash-free) fault storm, and with a
//!   crash-bearing plan in no-failover mode (where the crash stays an
//!   on-device outage).
//! * N-device fleet results are deterministic and invariant to worker
//!   -thread count: the final device timelines execute on the parallel
//!   sweep harness and are `debug_assert`-checked bit-identical to the
//!   sequential routing caches on every run of this suite.
//! * A hedged duplicate never changes the winning answer — scheduling
//!   moves clocks, never outcomes.
//! * Crash failover migrates interrupted requests to survivors and
//!   completes them.
//! * Every fleet fixture here, and the fleet policies of the
//!   `pr8_fleet` bench, reproduce fleet fingerprints frozen from the
//!   replay-from-zero router (`golden/anchors.txt`).

mod golden;

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, FaultEvent, FaultKind, FaultPlan, FaultPolicy, FleetConfig,
    FleetRun, FleetSim, HedgeConfig, KvTierConfig, RobustConfig, RoutePolicy, ServedRequest,
    StormConfig, TimelineConfig, TimelineServerSim, TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::SloClass;
use ftts_model::ProblemSpec;
use ftts_search::SearchKind;
use ftts_workload::{zipf_problems, ArrivalPattern, Dataset, RequestArrival};

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

/// The scheduler kernel at iteration granularity (no honesty features).
fn kernel(server: TtsServer, n: usize, config: EventConfig) -> TimelineServerSim {
    TimelineServerSim::new(
        server,
        n,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(config),
    )
}

fn arrivals(count: usize, problem_seed: u64, interval: f64) -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(count, problem_seed);
    ArrivalPattern::Uniform { interval }.schedule(&problems, 0)
}

fn event_config() -> EventConfig {
    EventConfig::new(
        BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30)),
        0.25,
    )
}

fn assert_served_identical(label: &str, a: &[ServedRequest], b: &[ServedRequest]) {
    assert_eq!(a.len(), b.len(), "{label}: request counts");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.arrived_at, y.arrived_at, "{label}[{i}]: arrivals");
        assert_eq!(x.started_at, y.started_at, "{label}[{i}]: admission");
        assert_eq!(x.finished_at, y.finished_at, "{label}[{i}]: completion");
        assert_eq!(x.shed, y.shed, "{label}[{i}]: shed");
        assert_eq!(x.granted_n, y.granted_n, "{label}[{i}]: granted width");
        assert_eq!(x.outcome.answer, y.outcome.answer, "{label}[{i}]: answers");
        assert_eq!(
            x.accepted_tokens(),
            y.accepted_tokens(),
            "{label}[{i}]: accepted tokens"
        );
        let (bx, by) = (x.outcome.stats.breakdown(), y.outcome.stats.breakdown());
        assert_eq!(bx.generator, by.generator, "{label}[{i}]: generator bucket");
        assert_eq!(bx.verifier, by.verifier, "{label}[{i}]: verifier bucket");
        assert_eq!(bx.recompute, by.recompute, "{label}[{i}]: recompute bucket");
        assert_eq!(bx.offload, by.offload, "{label}[{i}]: offload bucket");
        assert_eq!(bx.swap, by.swap, "{label}[{i}]: swap bucket");
        assert_eq!(bx.fault, by.fault, "{label}[{i}]: fault bucket");
        assert_eq!(bx.idle, by.idle, "{label}[{i}]: idle bucket");
    }
}

fn assert_run_matches_bare(label: &str, fleet: &FleetRun, bare: &BatchRun) {
    assert_eq!(fleet.device_runs.len(), 1, "{label}: one device");
    let dev = &fleet.device_runs[0];
    assert_served_identical(label, &dev.served, &bare.served);
    assert_served_identical(
        &format!("{label} (fleet view)"),
        &fleet.served,
        &bare.served,
    );
    assert_eq!(dev.rounds, bare.rounds, "{label}: rounds");
    assert_eq!(dev.group_iters, bare.group_iters, "{label}: group iters");
    assert_eq!(dev.preemptions, bare.preemptions, "{label}: preemptions");
    assert_eq!(dev.ver_sweeps, bare.ver_sweeps, "{label}: verifier sweeps");
    assert_eq!(dev.ver_seqs, bare.ver_seqs, "{label}: verifier seqs");
    assert_eq!(
        dev.peak_reserved_bytes, bare.peak_reserved_bytes,
        "{label}: peak reservations"
    );
    assert_eq!(dev.kv_tier_hits, bare.kv_tier_hits, "{label}: warm hits");
    assert_eq!(fleet.migrations, 0, "{label}: no migrations on 1 device");
    assert_eq!(fleet.hedges_launched, 0, "{label}: no hedges on 1 device");
}

/// Anchor 1: a 1-device fleet with the pass-through router is
/// bit-identical to a bare kernel run, fault-free.
#[test]
fn one_device_fleet_is_bit_identical_fault_free() {
    let stream = arrivals(5, 31, 12.0);
    let config = event_config();
    let bare = kernel(server(9, 0.55), 16, config)
        .run_faulted(&stream, &FaultPlan::none())
        .expect("bare run");
    let fleet = FleetSim::new(
        vec![server(9, 0.55)],
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::RoundRobin),
    )
    .run(&stream)
    .expect("fleet run");
    assert_run_matches_bare("fault-free", &fleet, &bare);
    golden::assert_fleet_golden("fleet/one-device-fault-free", &fleet);
}

/// Anchor 2: the same equivalence under a fault storm (no crashes —
/// those are routing-layer events when failover is on).
#[test]
fn one_device_fleet_is_bit_identical_under_storm() {
    let stream = arrivals(5, 47, 12.0);
    let config = event_config();
    let storm = StormConfig {
        kernel_faults: 2,
        slowdowns: 1,
        kv_losses: 1,
        device_degrades: 1,
        ..StormConfig::default()
    };
    let plan = FaultPlan::storm(0xF1EE7, 90.0, &storm);
    let bare = kernel(server(9, 0.55), 16, config)
        .run_faulted(&stream, &plan)
        .expect("bare run");
    let fleet = FleetSim::new(
        vec![server(9, 0.55)],
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::RoundRobin),
    )
    .run_faulted(&stream, std::slice::from_ref(&plan))
    .expect("fleet run");
    assert_run_matches_bare("storm", &fleet, &bare);
    golden::assert_fleet_golden("fleet/one-device-storm", &fleet);
}

/// Anchor 3: with failover *off*, a crash-bearing plan stays an
/// on-device outage and the 1-device fleet still reproduces the bare
/// simulator bit-for-bit.
#[test]
fn one_device_no_failover_crash_matches_bare_outage() {
    let stream = arrivals(4, 63, 15.0);
    let config = event_config();
    let plan = FaultPlan::new(vec![FaultEvent {
        at: 20.0,
        kind: FaultKind::DeviceCrash { down_for: 30.0 },
    }]);
    let bare = kernel(server(9, 0.55), 16, config)
        .run_faulted(&stream, &plan)
        .expect("bare run");
    let fleet = FleetSim::new(
        vec![server(9, 0.55)],
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::RoundRobin).without_failover(),
    )
    .run_faulted(&stream, std::slice::from_ref(&plan))
    .expect("fleet run");
    assert_run_matches_bare("no-failover crash", &fleet, &bare);
    golden::assert_fleet_golden("fleet/one-device-no-failover-crash", &fleet);
    assert!(
        fleet.crash_downtime_secs > 0.0,
        "downtime is still reported in the naive mode"
    );
}

fn four_device_fleet(route: RoutePolicy, hedge: Option<HedgeConfig>) -> FleetSim {
    let devices: Vec<TtsServer> = (0..4).map(|_| server(9, 0.55)).collect();
    let mut config = FleetConfig::new(event_config(), route);
    config.hedge = hedge;
    FleetSim::new(devices, 16, SearchKind::BeamSearch, config)
}

fn crashy_plans() -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::none(); 4];
    plans[1] = FaultPlan::new(vec![FaultEvent {
        at: 25.0,
        kind: FaultKind::DeviceCrash { down_for: 200.0 },
    }]);
    plans
}

/// N-device fleets are deterministic run-to-run, and (via the
/// `debug_assert` in the final parallel pass, active in this build)
/// invariant to sweep worker-thread count.
#[test]
fn fleet_results_are_deterministic_across_reruns() {
    let stream = arrivals(8, 77, 6.0);
    let hedge = Some(HedgeConfig {
        delay_factor: 0.5,
        min_samples: 2,
        min_delay_secs: 1.0,
    });
    let runs: Vec<FleetRun> = (0..2)
        .map(|_| {
            four_device_fleet(RoutePolicy::Jsq, hedge)
                .run_faulted(&stream, &crashy_plans())
                .expect("fleet run")
        })
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    golden::assert_fleet_golden("fleet/jsq-hedged-crash", a);
    assert_served_identical("rerun", &a.served, &b.served);
    assert_eq!(a.serving_device, b.serving_device, "placements");
    assert_eq!(a.migrations, b.migrations, "migrations");
    assert_eq!(a.hedges_launched, b.hedges_launched, "hedges launched");
    assert_eq!(a.hedges_won, b.hedges_won, "hedges won");
    for (x, y) in a.device_runs.iter().zip(&b.device_runs) {
        assert_served_identical("rerun device", &x.served, &y.served);
    }
}

/// A hedged duplicate never changes the winning answer: every request
/// resolves to the same answer and token count with hedging on or off.
#[test]
fn hedged_duplicates_never_change_the_winning_answer() {
    let stream = arrivals(8, 91, 18.0);
    let hedged = four_device_fleet(
        RoutePolicy::RoundRobin,
        Some(HedgeConfig {
            delay_factor: 0.05,
            min_samples: 1,
            min_delay_secs: 0.5,
        }),
    )
    .run(&stream)
    .expect("hedged run");
    let plain = four_device_fleet(RoutePolicy::RoundRobin, None)
        .run(&stream)
        .expect("plain run");
    golden::assert_fleet_golden("fleet/rr-aggressive-hedge", &hedged);
    golden::assert_fleet_golden("fleet/rr-plain", &plain);
    assert!(
        hedged.hedges_launched > 0,
        "the aggressive hedge config must actually hedge"
    );
    assert_eq!(
        hedged.hedges_launched,
        hedged.hedges_won + hedged.hedges_wasted,
        "every hedge is won or wasted"
    );
    for (i, (h, p)) in hedged.served.iter().zip(&plain.served).enumerate() {
        assert_eq!(h.shed, p.shed, "request {i}: completion");
        assert_eq!(
            h.outcome.answer, p.outcome.answer,
            "request {i}: hedging changed the answer"
        );
        assert_eq!(
            h.accepted_tokens(),
            p.accepted_tokens(),
            "request {i}: hedging changed the token count"
        );
    }
}

/// Crash failover migrates interrupted requests to survivors and
/// completes every request; the migration budget lands in the fault
/// bucket and the summary counters agree.
#[test]
fn crash_failover_migrates_and_completes_every_request() {
    let stream = arrivals(8, 105, 6.0);
    let run = four_device_fleet(RoutePolicy::Jsq, None)
        .run_faulted(&stream, &crashy_plans())
        .expect("fleet run");
    golden::assert_fleet_golden("fleet/jsq-crash-failover", &run);
    assert!(run.migrations > 0, "the crash must interrupt live requests");
    assert!(
        run.served.iter().all(|r| !r.shed),
        "every request completes on a survivor"
    );
    let migrated: Vec<&ServedRequest> = run
        .served
        .iter()
        .zip(&run.serving_device)
        .filter(|(_, d)| **d != Some(1))
        .map(|(r, _)| r)
        .collect();
    assert!(
        migrated
            .iter()
            .any(|r| r.outcome.stats.breakdown().fault > 0.0),
        "migrated winners book the hand-off into the fault bucket"
    );
    let summary = run.summary();
    assert_eq!(summary.devices, 4);
    assert_eq!(summary.migrations, run.migrations);
    assert!((summary.crash_downtime_secs - 200.0).abs() < 1e-9);
    assert!(
        summary.deadline_hit_rate() >= 0.0 && summary.slo_goodput() >= 0.0,
        "fleet summary is well-formed"
    );
    // The crashed device's own view shows the cancelled work.
    assert!(
        run.device_runs[1].cancelled > 0 || run.device_runs[1].served.is_empty(),
        "device 1 either had nothing routed or shows cancelled legs"
    );
}

/// PR 10: an explicit *anchored* timeline tuning is the fleet default —
/// pure bookkeeping: per-device runs carry occupancy roll-ups and stay
/// bit-identical to the default fleet.
#[test]
fn timeline_fleet_anchored_is_bit_identical_to_plain_fleet() {
    let stream = arrivals(6, 77, 4.0);
    let config = event_config();
    let devices = || vec![server(9, 0.55), server(9, 0.55)];
    let plain = FleetSim::new(
        devices(),
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::Jsq),
    )
    .run(&stream)
    .expect("plain fleet run");
    let timed = FleetSim::new(
        devices(),
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::Jsq).with_timeline(TimelineTuning::anchored()),
    )
    .run(&stream)
    .expect("timeline fleet run");
    golden::assert_fleet_golden("fleet/two-device-jsq-anchored", &timed);
    assert_served_identical("anchored fleet", &timed.served, &plain.served);
    assert_eq!(
        timed.serving_device, plain.serving_device,
        "routing decisions are unchanged"
    );
    for (d, run) in timed.device_runs.iter().enumerate() {
        if !run.served.is_empty() {
            assert!(
                run.timeline.segments > 0,
                "device {d} records segments on the global timeline"
            );
            assert_eq!(
                run.timeline.stretch_secs, 0.0,
                "anchored mode never stretches"
            );
        }
    }
}

/// PR 10: the honest timeline with token joins serves every request
/// with the same answers as the plain fleet — honesty moves clocks,
/// never outcomes.
#[test]
fn timeline_fleet_honest_joins_preserves_answers() {
    let stream = arrivals(6, 77, 4.0);
    let config = event_config();
    let devices = || vec![server(9, 0.55), server(9, 0.55)];
    let plain = FleetSim::new(
        devices(),
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::RoundRobin),
    )
    .run(&stream)
    .expect("plain fleet run");
    let honest = FleetSim::new(
        devices(),
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::RoundRobin).with_timeline(
            TimelineTuning::honest()
                .with_token_joins()
                .with_join_quantum(8),
        ),
    )
    .run(&stream)
    .expect("honest fleet run");
    golden::assert_fleet_golden("fleet/two-device-rr-anchored", &plain);
    golden::assert_fleet_golden("fleet/two-device-rr-honest-joins", &honest);
    assert_eq!(honest.served.len(), plain.served.len());
    for (i, (h, p)) in honest.served.iter().zip(&plain.served).enumerate() {
        assert!(!h.shed, "request {i} completes under the honest timeline");
        assert_eq!(
            h.outcome.answer, p.outcome.answer,
            "request {i}: answers survive honest scheduling"
        );
        assert_eq!(
            h.accepted_tokens(),
            p.accepted_tokens(),
            "request {i}: token counts survive honest scheduling"
        );
    }
    assert!(
        honest.device_runs.iter().any(|r| r.timeline.segments > 0),
        "at least one device recorded timeline segments"
    );
}

/// The `pr8_fleet` bench's fixture: twelve Zipf draws over four AMC
/// problems at a four-second cadence with round-robin SLO deadlines,
/// n = 16, continuous batching with a host tier, device 1 down from
/// t = 25 s for 300 s.
fn pr8_event() -> EventConfig {
    EventConfig::new(
        BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 33)),
        0.25,
    )
}

fn pr8_zipf(count: usize) -> Vec<ProblemSpec> {
    let ranked = Dataset::Amc2023.problems(4, 47);
    zipf_problems(&ranked, count, 1.2, 29)
}

fn pr8_fleet(devices: Vec<GpuDevice>, config: FleetConfig) -> FleetSim {
    let servers = devices
        .into_iter()
        .map(|dev| {
            let mut s = TtsServer::fasttts(dev, ModelPairing::pair_1_5b_1_5b());
            s.config_mut().seed = 17;
            s.config_mut().memory_fraction = 0.55;
            s
        })
        .collect();
    FleetSim::new(servers, 16, SearchKind::BeamSearch, config)
}

/// Every fleet run of the `pr8_fleet` bench reproduces its frozen
/// fingerprint: the crash with and without failover, JSQ vs prefix
/// affinity, 1 vs 4 devices, and the Orin vs mixed fleets.
#[test]
fn pr8_fleet_policies_match_frozen_fingerprints() {
    let slos = [
        (SloClass::Interactive, 90.0),
        (SloClass::Standard, 120.0),
        (SloClass::Batch, 180.0),
    ];
    let free = ArrivalPattern::Uniform { interval: 4.0 }.schedule(&pr8_zipf(12), 0);
    let slo: Vec<RequestArrival> = free
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let (class, slack) = slos[i % slos.len()];
            a.clone().with_slo(class, slack)
        })
        .collect();
    let burst = ArrivalPattern::Burst { at: 0.0 }.schedule(&pr8_zipf(16), 0);
    let mut plans = vec![FaultPlan::none(); 4];
    plans[1] = FaultPlan::new(vec![FaultEvent {
        at: 25.0,
        kind: FaultKind::DeviceCrash { down_for: 300.0 },
    }]);
    let hedge = HedgeConfig {
        delay_factor: 1.5,
        min_samples: 3,
        min_delay_secs: 5.0,
    };
    let rtx = |k: usize| vec![GpuDevice::rtx4090(); k];
    let jsq = FleetConfig::new(pr8_event(), RoutePolicy::Jsq);
    let runs = [
        (
            "no-failover",
            pr8_fleet(rtx(4), jsq.without_failover()).run_faulted(&slo, &plans),
        ),
        (
            "failover-hedge",
            pr8_fleet(rtx(4), jsq.with_hedge(hedge)).run_faulted(&slo, &plans),
        ),
        ("jsq", pr8_fleet(rtx(4), jsq).run(&slo)),
        (
            "prefix-affinity",
            pr8_fleet(
                rtx(4),
                FleetConfig::new(pr8_event(), RoutePolicy::PrefixAffinity),
            )
            .run(&slo),
        ),
        (
            "single-device",
            pr8_fleet(
                rtx(1),
                FleetConfig::new(pr8_event(), RoutePolicy::RoundRobin),
            )
            .run(&burst),
        ),
        ("fleet4", pr8_fleet(rtx(4), jsq).run(&burst)),
        (
            "edge-orin-only",
            pr8_fleet(vec![GpuDevice::jetson_orin(); 4], jsq).run(&free),
        ),
        (
            "hetero-mixed",
            pr8_fleet(
                vec![
                    GpuDevice::a100_80g(),
                    GpuDevice::jetson_orin(),
                    GpuDevice::a100_80g(),
                    GpuDevice::jetson_orin(),
                ],
                jsq,
            )
            .run(&free),
        ),
    ];
    for (label, run) in runs {
        let run = run.expect("pr8 fleet run");
        golden::assert_fleet_golden(&format!("fleet/pr8/{label}"), &run);
    }
}

/// A small copy of the repository benchmark's `fleet_crash` workload:
/// Poisson Zipf arrivals with SLO deadlines on four devices under JSQ
/// and default hedging, the honest timeline with token joins, a host
/// tier, the degrade policy, and device 1 crashing for good a third of
/// the way in.
#[test]
fn fleet_crash_miniature_matches_frozen_fingerprint() {
    let slos = [
        (SloClass::Interactive, 40.0),
        (SloClass::Standard, 60.0),
        (SloClass::Batch, 120.0),
    ];
    let ranked = Dataset::Amc2023.problems(8, 47);
    let drawn = zipf_problems(&ranked, 24, 0.8, 424_242);
    let stream: Vec<RequestArrival> = ArrivalPattern::Poisson { rate: 0.3 }
        .schedule(&drawn, 101)
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            let (class, slack) = slos[i % slos.len()];
            a.with_slo(class, slack)
        })
        .collect();
    let mut plans = vec![FaultPlan::none(); 4];
    plans[1] = FaultPlan::new(vec![FaultEvent {
        at: stream[8].at + 2.0,
        kind: FaultKind::DeviceCrash { down_for: 1.0e4 },
    }]);
    let event = EventConfig::new(
        BatchConfig::continuous(4)
            .with_tier(KvTierConfig::with_capacity(1 << 33))
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade)),
        0.25,
    );
    let config = FleetConfig::new(event, RoutePolicy::Jsq)
        .with_timeline(TimelineTuning::honest().with_token_joins())
        .with_hedge(HedgeConfig::default());
    let run = FleetSim::new(
        vec![server(17, 0.55); 4],
        16,
        SearchKind::BeamSearch,
        config,
    )
    .run_faulted(&stream, &plans)
    .expect("fleet run");
    assert!(run.migrations > 0, "the crash interrupts live requests");
    assert!(run.hedges_launched > 0, "stragglers are hedged");
    golden::assert_fleet_golden("fleet/crash-honest-joins-hedge", &run);
}
