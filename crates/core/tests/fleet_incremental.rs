//! The fleet router resumes each device's kernel from a checkpoint
//! instead of replaying it from t = 0. Resuming must be invisible: over
//! random traces, crash plans and fault storms, every routing policy,
//! hedging on and off, and the anchored, honest and token-join
//! timelines, each device's resumed run equals a fresh kernel run over
//! the legs and directives the device ended with — on every field,
//! timeline roll-up included.
//!
//! The kernel-level cases for each horizon channel (an arrival exactly
//! at a launch instant, inside a token-join chunk or during a lone
//! speculating iteration; a device's first cancel; a cancel older than
//! the newest checkpoint) are unit tests of the kernel in
//! `crates/core/src/timeline.rs`.

use ftts_core::{
    BatchConfig, EventConfig, FaultEvent, FaultKind, FaultPlan, FleetConfig, FleetRun, FleetSim,
    HedgeConfig, KvTierConfig, RoutePolicy, StormConfig, TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::SloClass;
use ftts_search::SearchKind;
use ftts_workload::{zipf_problems, ArrivalPattern, Dataset, RequestArrival};
use proptest::prelude::*;

fn server(seed: u64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = 0.55;
    s
}

/// Every device's run equals a replay from t = 0 of its final input.
fn assert_devices_replay(fleet: &FleetSim, run: &FleetRun) {
    assert_eq!(run.device_inputs.len(), run.device_runs.len());
    for (d, (input, cached)) in run.device_inputs.iter().zip(&run.device_runs).enumerate() {
        let replay = fleet.replay_device(d, input).expect("replay");
        assert_eq!(
            replay.full_fingerprint(),
            cached.full_fingerprint(),
            "device {d}: resumed run differs from its replay"
        );
        assert_eq!(cached.served.len(), input.arrivals.len());
    }
}

fn tuning(which: usize) -> TimelineTuning {
    match which {
        0 => TimelineTuning::anchored(),
        1 => TimelineTuning::honest(),
        _ => TimelineTuning::honest()
            .with_token_joins()
            .with_join_quantum(8),
    }
}

/// One random fleet scenario (see the proptest below).
struct Scenario {
    count: usize,
    poisson: bool,
    spacing: f64,
    devices: usize,
    route: RoutePolicy,
    hedge: bool,
    timeline: usize,
    crash: bool,
    storm: bool,
    seed: u64,
}

impl Scenario {
    /// Run the fleet and check every device against its replay.
    fn check(&self) {
        let ranked = Dataset::Amc2023.problems(4, self.seed);
        let drawn = zipf_problems(&ranked, self.count, 1.0, self.seed + 1);
        let pattern = if self.poisson {
            ArrivalPattern::Poisson {
                rate: 1.0 / self.spacing,
            }
        } else {
            ArrivalPattern::Uniform {
                interval: self.spacing,
            }
        };
        let slos = [
            (SloClass::Interactive, 30.0),
            (SloClass::Standard, 60.0),
            (SloClass::Batch, 120.0),
        ];
        let arrivals: Vec<RequestArrival> = pattern
            .schedule(&drawn, self.seed)
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let (class, slack) = slos[i % slos.len()];
                a.with_slo(class, slack)
            })
            .collect();
        let horizon = arrivals.last().map_or(1.0, |a| a.at) + 30.0;
        let mut plans = vec![FaultPlan::none(); self.devices];
        if self.storm {
            let cfg = StormConfig {
                kernel_faults: 3,
                slowdowns: 1,
                kv_losses: 1,
                device_degrades: 1,
                ..StormConfig::default()
            };
            plans[0] = FaultPlan::storm(self.seed ^ 0x5707, horizon, &cfg);
        }
        if self.crash {
            plans[self.devices - 1] = FaultPlan::new(vec![FaultEvent {
                at: arrivals[self.count / 2].at + 1.0,
                kind: FaultKind::DeviceCrash {
                    down_for: 20.0 + (self.seed % 3) as f64 * 40.0,
                },
            }]);
        }
        let event = EventConfig::new(
            BatchConfig::continuous(3).with_tier(KvTierConfig::with_capacity(1 << 32)),
            0.25,
        );
        let mut config = FleetConfig::new(event, self.route).with_timeline(tuning(self.timeline));
        if self.hedge {
            config = config.with_hedge(HedgeConfig {
                delay_factor: 0.5,
                min_samples: 2,
                min_delay_secs: 0.5,
            });
        }
        let servers = (0..self.devices)
            .map(|d| server(self.seed + d as u64))
            .collect();
        let fleet = FleetSim::new(servers, 8, SearchKind::BeamSearch, config);
        let run = fleet.run_faulted(&arrivals, &plans).expect("fleet run");
        assert_eq!(run.served.len(), arrivals.len());
        assert_devices_replay(&fleet, &run);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resumed_devices_equal_their_replays(
        count in 6usize..12,
        poisson in any::<bool>(),
        spacing in prop::sample::select(vec![0.7f64, 2.0, 5.0]),
        devices in 2usize..4,
        route in prop::sample::select(vec![
            RoutePolicy::RoundRobin,
            RoutePolicy::Jsq,
            RoutePolicy::PrefixAffinity,
            RoutePolicy::HealthEwma,
        ]),
        hedge in any::<bool>(),
        timeline in 0usize..3,
        crash in any::<bool>(),
        storm in any::<bool>(),
        seed in 0u64..1000,
    ) {
        Scenario {
            count,
            poisson,
            spacing,
            devices,
            route,
            hedge,
            timeline,
            crash,
            storm,
            seed,
        }
        .check();
    }
}

/// A hedge resolve that cancels its loser at a winning finish earlier
/// than checkpoints the loser's device already holds: the resume must
/// reach back past them (found by the proptest at 300 cases).
#[test]
fn a_resolve_reaching_back_past_a_checkpoint_resumes_before_it() {
    Scenario {
        count: 10,
        poisson: true,
        spacing: 5.0,
        devices: 2,
        route: RoutePolicy::PrefixAffinity,
        hedge: true,
        timeline: 0,
        crash: true,
        storm: false,
        seed: 402,
    }
    .check();
}

/// Hedge losers are cancelled at the winner's finish — often before the
/// resolve event that applies the cancel — and interrupted legs migrate
/// with warm prefixes: every path that moves a device's inputs back in
/// time, on a fleet busy enough to keep checkpoints in play.
#[test]
fn hedged_crash_fleet_devices_equal_their_replays() {
    let problems = Dataset::Amc2023.problems(12, 5);
    let arrivals = ArrivalPattern::Uniform { interval: 1.5 }.schedule(&problems, 0);
    let mut plans = vec![FaultPlan::none(); 3];
    plans[1] = FaultPlan::new(vec![FaultEvent {
        at: 8.0,
        kind: FaultKind::DeviceCrash { down_for: 15.0 },
    }]);
    let config = FleetConfig::new(
        EventConfig::new(
            BatchConfig::continuous(3).with_tier(KvTierConfig::with_capacity(1 << 32)),
            0.25,
        ),
        RoutePolicy::Jsq,
    )
    .with_timeline(TimelineTuning::honest().with_token_joins())
    .with_hedge(HedgeConfig {
        delay_factor: 0.3,
        min_samples: 1,
        min_delay_secs: 0.5,
    });
    let fleet = FleetSim::new(vec![server(3); 3], 8, SearchKind::BeamSearch, config);
    let run = fleet.run_faulted(&arrivals, &plans).expect("fleet run");
    assert!(run.migrations > 0, "the crash interrupts live legs");
    assert!(run.hedges_launched > 0, "stragglers are hedged");
    assert!(run.hedges_wasted > 0, "hedge losers are cancelled");
    assert_devices_replay(&fleet, &run);
}
