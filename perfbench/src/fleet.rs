//! `fleet_crash`: a 4-device fleet under join-shortest-queue routing
//! with one device crash a third of the way into the trace.
//!
//! Every device runs the honest global timeline with token joins, a
//! host KV tier and the full SLO policy (admission, preemption,
//! shedding, degradation). Arrivals are Zipf-popular draws from a fixed
//! catalogue of AMC-2023 problems (shared prompts, so warm starts from
//! the tier happen), arrive by Poisson and carry round-robin SLO
//! deadlines. The seed draws the arrival times. The catalogue, the
//! popularity sample (which problems arrive, in which order) and the
//! engine seed stay fixed: with the catalogue and the engine seed drawn
//! from the seed too the sim metrics spread by more than a fifth across
//! seeds, and with the popularity sample `host_ms_per_req` spread by
//! 0.15 over ten seeds, against 0.03 with it fixed. Losing a device
//! leaves the three survivors close to saturation.
//! Host time here is dominated by the fleet router, which re-simulates
//! a device from t = 0 on every routing event.

use std::time::Instant;

use ftts_core::{
    BatchConfig, EventConfig, FaultEvent, FaultKind, FaultPlan, FaultPolicy, FleetConfig, FleetRun,
    FleetSim, HedgeConfig, KvTierConfig, RobustConfig, RoutePolicy, ServedRequest,
    TimelineServerSim, TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::{SloClass, Summary};
use ftts_search::SearchKind;
use ftts_workload::{zipf_problems, ArrivalPattern, Dataset, RequestArrival};

use crate::speed::{SpeedClock, SpeedSampler};
use crate::trace::{Overhead, Tracer};
use crate::{median, Report, SetupClock};

const DEVICES: usize = 4;
const N_BEAMS: usize = 16;
const MAX_BATCH: usize = 4;
const WINDOW_S: f64 = 0.25;
const MEMORY_FRACTION: f64 = 0.55;
const TIER_BYTES: u64 = 1 << 33;
/// 200 requests, so the latency p95 has ten requests beyond it.
const REQUESTS: usize = 200;
const DISTINCT_PROBLEMS: usize = 32;
const CATALOGUE_SEED: u64 = 47;
const POPULARITY_SEED: u64 = 424_242;
const ENGINE_SEED: u64 = 17;
const ZIPF_SKEW: f64 = 0.8;
/// Offered load, requests per simulated second: 88% of what three
/// devices serve back to back (0.34) and 67% of four (0.45). Higher
/// rates make the latency p95 swing by more than a third across seeds
/// (see README.md).
const RATE: f64 = 0.30;
const CRASH_DEVICE: usize = 1;
/// The crashed device stays down for the rest of the trace.
const CRASH_DOWN_S: f64 = 1.0e4;
const SLOS: [(SloClass, f64); 3] = [
    (SloClass::Interactive, 40.0),
    (SloClass::Standard, 60.0),
    (SloClass::Batch, 120.0),
];
/// Set-ups timed before each fleet run.
const SETUPS_PER_RUN: usize = 3;
/// The set-up's warm-up trace: this many fixed AMC-2023 problems, one
/// every `WARMUP_INTERVAL_S` simulated seconds.
const WARMUP_REQUESTS: usize = 12;
const WARMUP_INTERVAL_S: f64 = 3.0;

struct Setup {
    arrivals: Vec<RequestArrival>,
    plans: Vec<FaultPlan>,
    fleet: FleetSim,
    event: EventConfig,
    server: TtsServer,
}

fn server() -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = ENGINE_SEED;
    s.config_mut().memory_fraction = MEMORY_FRACTION;
    s
}

fn event_config() -> EventConfig {
    EventConfig::new(
        BatchConfig::continuous(MAX_BATCH)
            .with_tier(KvTierConfig::with_capacity(TIER_BYTES))
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade)),
        WINDOW_S,
    )
}

fn tuning() -> TimelineTuning {
    TimelineTuning::honest().with_token_joins()
}

fn arrivals(seed: u64) -> Vec<RequestArrival> {
    let ranked = Dataset::Amc2023.problems(DISTINCT_PROBLEMS, CATALOGUE_SEED);
    let drawn = zipf_problems(&ranked, REQUESTS, ZIPF_SKEW, POPULARITY_SEED);
    ArrivalPattern::Poisson { rate: RATE }
        .schedule(&drawn, seed)
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            let (class, slack) = SLOS[i % SLOS.len()];
            a.with_slo(class, slack)
        })
        .collect()
}

fn build(seed: u64) -> Setup {
    let arrivals = arrivals(seed);
    let mut plans = vec![FaultPlan::none(); DEVICES];
    plans[CRASH_DEVICE] = FaultPlan::new(vec![FaultEvent {
        at: arrivals[REQUESTS / 3].at,
        kind: FaultKind::DeviceCrash {
            down_for: CRASH_DOWN_S,
        },
    }]);
    let event = event_config();
    let server = server();
    let config = FleetConfig::new(event, RoutePolicy::Jsq)
        .with_timeline(tuning())
        .with_hedge(HedgeConfig::default());
    let fleet = FleetSim::new(
        vec![server.clone(); DEVICES],
        N_BEAMS,
        SearchKind::BeamSearch,
        config,
    );
    Setup {
        arrivals,
        plans,
        fleet,
        event,
        server,
    }
}

fn run_fleet(s: &Setup) -> Result<FleetRun, String> {
    s.fleet
        .run_faulted(&s.arrivals, &s.plans)
        .map_err(|e| format!("fleet run: {e}"))
}

/// Every simulated per-request value, bit-exact: arrival and finish
/// instants, shed flag, answer and serving device.
type Fingerprint = Vec<(u64, u64, bool, Option<u32>, Option<usize>)>;

fn fingerprint(run: &FleetRun) -> Fingerprint {
    run.served
        .iter()
        .zip(&run.serving_device)
        .map(|(r, d)| {
            (
                r.arrived_at.to_bits(),
                r.finished_at.to_bits(),
                r.shed,
                r.outcome.answer,
                *d,
            )
        })
        .collect()
}

/// Requests not resolved exactly once (each arrival must own one
/// record, shed exactly when no device served it).
fn unresolved(s: &Setup, run: &FleetRun) -> u64 {
    if run.served.len() != s.arrivals.len() || run.serving_device.len() != s.arrivals.len() {
        return s.arrivals.len() as u64;
    }
    s.arrivals
        .iter()
        .zip(run.served.iter().zip(&run.serving_device))
        .filter(|(a, (r, d))| r.arrived_at != a.at || r.shed != d.is_none())
        .count() as u64
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up: generate the trace and fault plans, build the fleet and
    // warm it up on a fixed short trace (not drawn from the seed, so the
    // set-up work is the same on every seed). Repeated before every run
    // so the samples span the run.
    let warmup = ArrivalPattern::Uniform {
        interval: WARMUP_INTERVAL_S,
    }
    .schedule(&Dataset::Amc2023.problems(WARMUP_REQUESTS, 0), 0);
    let mut setups = SetupClock::default();
    let mut fresh = || {
        setups.time(SETUPS_PER_RUN, || -> Result<Setup, String> {
            let s = build(seed);
            s.fleet
                .run(&warmup)
                .map_err(|e| format!("warm-up run: {e}"))?;
            Ok(s)
        })
    };

    let sampler = SpeedSampler::start();
    let start = Instant::now();
    let mut tracer = trace.then(Tracer::default);
    let mut overhead = Overhead::default();
    // Only the first run is kept whole; every run is checked as it
    // ends and reduced to its fingerprint, so the peak RSS does not grow
    // with the number of runs.
    let mut first: Option<FleetRun> = None;
    let mut prints = Vec::new();
    let mut runs = SpeedClock::default();
    let mut traced_prints = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut unresolved_count, mut leaking_runs) = (0u64, 0usize);
    let mut setup;
    loop {
        setup = fresh()?;
        let run = if let Some(t) = tracer.as_mut() {
            // The same fleet run traced and untraced, for the overhead.
            let ((traced, traced_t), (run, _)) = overhead.both(prints.len() % 2 == 1, |traced| {
                if traced {
                    t.span("fleet.run", 0, |_| run_fleet(&setup))
                } else {
                    run_fleet(&setup)
                }
            });
            traced_ms.push(traced_t.as_secs_f64() * 1e3);
            traced_prints.push(fingerprint(&traced?));
            run?
        } else {
            runs.time(|| run_fleet(&setup))?
        };
        unresolved_count += unresolved(&setup, &run);
        leaking_runs += usize::from(run.device_runs.iter().any(|d| d.final_reserved_bytes != 0));
        prints.push(fingerprint(&run));
        first.get_or_insert(run);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let speed = sampler.finish()?;
    report.set("setup_s", setups.median(&speed));
    let first = first.expect("at least one fleet run");
    let reference = &prints[0];
    report.phase(
        format!("fleet runs x{} (requests)", prints.len()),
        (REQUESTS * prints.len()) as u64,
        unresolved_count,
    );
    report.check(
        format!("every request resolved exactly once ({unresolved_count} not, over all runs)"),
        unresolved_count == 0,
    );
    report.check(
        format!("every device drains to final_reserved_bytes == 0 ({leaking_runs} runs leak)"),
        leaking_runs == 0,
    );
    report.check(
        format!(
            "all {} untraced runs reproduce the same simulated outcomes",
            prints.len()
        ),
        prints.iter().all(|p| p == reference),
    );

    let summary = first.fleet_summary();
    // Host time per request is an untraced run's metric.
    let per_req = |ms: Vec<f64>| -> Vec<f64> { ms.iter().map(|m| m / REQUESTS as f64).collect() };
    let run_ms = per_req(runs.corrected(&speed));
    if !trace {
        report.set("host_ms_per_req", median(&run_ms));
    }
    report.set("sim_goodput_tok_s", summary.stream_goodput);
    report.set("sim_latency_p50_s", summary.latency.p50);
    report.set("sim_latency_p95_s", summary.latency.p95);
    report.note(format!(
        "trace: {REQUESTS} requests over {:.0} simulated s ({RATE} req/s offered), device {CRASH_DEVICE} crashes at {:.1} s",
        setup.arrivals[REQUESTS - 1].at,
        setup.arrivals[REQUESTS / 3].at
    ));
    let list = |v: &[f64]| {
        v.iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    if !trace {
        report.note(format!(
            "host ms per request by run, speed-corrected: {}; wall-clock: {}; core slowdown (median over the run): {:.3}",
            list(&run_ms),
            list(&per_req(runs.raw())),
            speed.median()
        ));
    }
    report.note(format!(
        "sim: deadline hit rate {:.4}, {} shed, {} migrations, {} warm hits",
        summary.deadline_hit_rate,
        summary.shed,
        first.migrations,
        first.warm_hits()
    ));

    if let Some(mut tracer) = tracer {
        report.phase(
            format!("traced fleet runs x{} (requests)", traced_prints.len()),
            (REQUESTS * traced_prints.len()) as u64,
            0,
        );
        report.check(
            "traced run's simulated outcomes equal the untraced run's",
            traced_prints.iter().all(|p| p == reference),
        );
        let fleet_ms = median(&traced_ms);
        layers(&setup, &first, fleet_ms, &mut tracer, &mut report)?;
        report.set("fleet.run_ms", fleet_ms);
        report.set("bench.trace_overhead_pct", overhead.pct());
        report.set("sim_deadline_hit_rate", summary.deadline_hit_rate);
        report.tracer = Some(tracer);
    }
    Ok(report)
}

/// Per-layer numbers of one fleet run, plus one single-device pass per
/// device over the arrivals that device served (the work the router
/// would do without re-simulation).
fn layers(
    s: &Setup,
    run: &FleetRun,
    fleet_ms: f64,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut pass_ms = 0.0;
    for d in 0..DEVICES {
        let mine: Vec<RequestArrival> = s
            .arrivals
            .iter()
            .zip(&run.serving_device)
            .filter(|(_, sd)| **sd == Some(d))
            .map(|(a, _)| a.clone())
            .collect();
        let sim = TimelineServerSim::new(
            s.server.clone(),
            N_BEAMS,
            SearchKind::BeamSearch,
            tuning().config(s.event),
        );
        let t0 = Instant::now();
        t.span("sched.device_pass", d as u64, |_| {
            sim.run_faulted(&mine, &FaultPlan::none())
        })
        .map_err(|e| format!("device pass: {e}"))?;
        pass_ms += t0.elapsed().as_secs_f64() * 1e3;
    }
    let summaries = t.span("metrics.summary", 0, |_| {
        (run.fleet_summary(), run.summary())
    });
    let _ = summaries;

    let devs = &run.device_runs;
    let sum = |f: &dyn Fn(&ftts_core::BatchRun) -> f64| devs.iter().map(f).sum::<f64>();
    let rounds = sum(&|r| r.rounds as f64);
    let served: &[ServedRequest] = &run.served;
    let delays: Vec<f64> = served.iter().map(ServedRequest::queue_delay).collect();
    report.set("fleet.resim_amplification", fleet_ms / pass_ms);
    report.set("fleet.migrations", run.migrations as f64);
    report.set("fleet.hedges_wasted", run.hedges_wasted as f64);
    report.set("kv.tier_hits", run.warm_hits() as f64);
    report.set("sched.launches", rounds);
    report.set(
        "sched.cobatch_width",
        sum(&|r| r.group_iters as f64) / rounds.max(1.0),
    );
    report.set("sched.preemptions", sum(&|r| f64::from(r.preemptions)));
    report.set("sched.shed", sum(&|r| f64::from(r.shed + r.cancelled)));
    report.set("sched.degradations", sum(&|r| f64::from(r.degradations)));
    report.set("sched.queue_delay_p50_s", Summary::of(&delays).p50);
    report.set(
        "kv.peak_reserved_frac",
        devs.iter()
            .map(|r| r.peak_reserved_bytes as f64 / r.pool_bytes as f64)
            .fold(0.0, f64::max),
    );
    report.set(
        "timeline.utilization",
        sum(&|r| r.timeline.busy_secs) / sum(&|r| r.timeline.span_secs).max(f64::MIN_POSITIVE),
    );
    report.set("timeline.stretch_s", sum(&|r| r.timeline.stretch_secs));
    let (join, contention) = served.iter().fold((0.0, 0.0), |(j, c), r| {
        let b = r.outcome.stats.breakdown();
        (j + b.join_wait, c + b.contention)
    });
    report.set("timeline.join_wait_s", join);
    report.set("timeline.contention_s", contention);
    report.set("metrics.summary_ms", t.total_ms("metrics.summary"));
    let (gen, ver, rec) = served.iter().fold((0.0, 0.0, 0.0), |(g, v, c), r| {
        let b = r.outcome.stats.breakdown();
        (g + b.generator, v + b.verifier, c + b.recompute)
    });
    report.set("engine.gen_s", gen);
    report.set("engine.ver_s", ver);
    report.set("engine.recompute_s", rec);
    Ok(())
}
