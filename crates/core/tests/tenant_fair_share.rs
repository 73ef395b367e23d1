//! Per-tenant fair-share integration regressions: hard KV caps hold at
//! every rebalance boundary (audited through the per-tenant peak
//! grants), capping a noisy tenant protects its neighbour, per-tenant
//! admission quotas do not block other tenants' arrivals, and tenanted
//! runs stay bit-deterministic. The lockstep fixtures are also pinned
//! to fingerprints frozen from the former lockstep loop
//! (`golden/anchors.txt`).

mod golden;

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, TenantPolicy, TenantSpec, TimelineConfig,
    TimelineServerSim, TtsServer,
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

/// The scheduler kernel at iteration granularity (no honesty features).
fn kernel(server: TtsServer, n: usize, config: EventConfig) -> TimelineServerSim {
    TimelineServerSim::new(
        server,
        n,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(config),
    )
}

/// The noisy-neighbor fixture: tenant 0 (the victim) trickles shallow
/// AMC requests in at a steady cadence; tenant 1 (the noisy one) dumps
/// a burst of deep AIME searches at t=0 that, uncapped, would hold most
/// of the KV pool for the whole run.
fn noisy_neighbor_arrivals() -> Vec<RequestArrival> {
    let victim = Dataset::Amc2023.problems(4, 11);
    let noisy = Dataset::Aime2024.problems(3, 13);
    let mut arrivals: Vec<RequestArrival> = ArrivalPattern::Burst { at: 0.0 }
        .schedule(&noisy, 0)
        .into_iter()
        .map(|a| a.with_tenant(1))
        .collect();
    arrivals.extend(
        ArrivalPattern::Uniform { interval: 2.0 }
            .schedule(&victim, 0)
            .iter()
            .cloned()
            .map(|a| a.with_tenant(0)),
    );
    arrivals.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite arrival times"));
    arrivals
}

fn victim_mean_latency(run: &BatchRun, arrivals: &[RequestArrival]) -> f64 {
    let lats: Vec<f64> = run
        .served
        .iter()
        .zip(arrivals)
        .filter(|(_, a)| a.tenant == 0)
        .map(|(r, _)| r.finished_at - r.arrived_at)
        .collect();
    lats.iter().sum::<f64>() / lats.len() as f64
}

#[test]
fn tenant_caps_hold_and_protect_the_victim() {
    let arrivals = noisy_neighbor_arrivals();
    let pool = server(7, 0.45).config().kv_budget_bytes();
    let cap = pool / 4;
    let policy = TenantPolicy::new(&[
        TenantSpec {
            id: 0,
            weight: 1,
            kv_cap_bytes: u64::MAX,
            max_in_flight: 0,
        },
        TenantSpec {
            id: 1,
            weight: 1,
            kv_cap_bytes: cap,
            max_in_flight: 0,
        },
    ]);
    let run = |config: BatchConfig| {
        lockstep(server(7, 0.45), 12, config)
            .run(&arrivals)
            .expect("run")
    };
    let uncapped = run(BatchConfig::fused(4));
    let capped = run(BatchConfig::fused(4).with_tenants(policy));
    golden::assert_golden("tenant_fair_share/lockstep-uncapped", &uncapped);
    golden::assert_golden("tenant_fair_share/lockstep-capped", &capped);

    // The hard cap held at every boundary the whole run: the noisy
    // tenant's peak steady-state grant never exceeded it.
    let peak = |r: &BatchRun, t: u32| {
        r.tenant_peak_bytes
            .iter()
            .find(|&&(id, _)| id == t)
            .map_or(0, |&(_, b)| b)
    };
    assert!(
        peak(&capped, 1) <= cap,
        "noisy tenant peak {} must stay within its cap {cap}",
        peak(&capped, 1)
    );
    assert!(peak(&capped, 1) > 0, "the noisy tenant did run");
    assert!(
        peak(&uncapped, 1) == 0,
        "without a policy no tenant grants are recorded"
    );
    assert!(capped.peak_reserved_bytes <= capped.pool_bytes);
    assert_eq!(capped.final_reserved_bytes, 0, "no leaked reservations");

    // Everyone is still served (caps squeeze, never starve)...
    assert_eq!(capped.served.len(), arrivals.len());
    // ...and the victim tenant is measurably better off with the noisy
    // neighbour confined to its cap.
    let (v_capped, v_uncapped) = (
        victim_mean_latency(&capped, &arrivals),
        victim_mean_latency(&uncapped, &arrivals),
    );
    assert!(
        v_capped < v_uncapped,
        "victim mean latency {v_capped} must improve on the uncapped {v_uncapped}"
    );
}

#[test]
fn admission_quota_limits_one_tenant_without_blocking_the_other() {
    // Tenant 1 bursts 4 requests with an in-flight quota of 1; tenant 0
    // arrives shortly after. Without the quota filter tenant 0's
    // arrival would queue behind tenant 1's backlog (FIFO head-only
    // admission); with it, tenant 0 admits as soon as a slot is free.
    let noisy = Dataset::Amc2023.problems(4, 5);
    let victim = Dataset::Amc2023.problems(1, 21);
    let mut arrivals: Vec<RequestArrival> = ArrivalPattern::Burst { at: 0.0 }
        .schedule(&noisy, 0)
        .into_iter()
        .map(|a| a.with_tenant(1))
        .collect();
    arrivals.extend(
        ArrivalPattern::Burst { at: 0.1 }
            .schedule(&victim, 0)
            .iter()
            .cloned()
            .map(|a| a.with_tenant(0)),
    );
    let policy = TenantPolicy::new(&[
        TenantSpec {
            id: 0,
            weight: 1,
            kv_cap_bytes: u64::MAX,
            max_in_flight: 0,
        },
        TenantSpec {
            id: 1,
            weight: 1,
            kv_cap_bytes: u64::MAX,
            max_in_flight: 1,
        },
    ]);
    let run = lockstep(
        server(3, 0.9),
        8,
        BatchConfig::fused(4).with_tenants(policy),
    )
    .run(&arrivals)
    .expect("run");
    golden::assert_golden("tenant_fair_share/lockstep-quota", &run);
    assert_eq!(run.served.len(), 5, "everyone is eventually served");
    // The victim (arrival index 4) starts while tenant 1's backlog is
    // still queued: it must not wait for all four noisy requests.
    let victim_start = run.served[4].started_at;
    let noisy_last_finish = run.served[..4]
        .iter()
        .map(|r| r.finished_at)
        .fold(0.0f64, f64::max);
    assert!(
        victim_start < noisy_last_finish,
        "the quota must not make tenant 0 wait out tenant 1's backlog \
         (start {victim_start} vs backlog drain {noisy_last_finish})"
    );
}

#[test]
fn tenanted_runs_are_deterministic_across_replays() {
    let arrivals = noisy_neighbor_arrivals();
    let pool = server(7, 0.4).config().kv_budget_bytes();
    let policy = TenantPolicy::new(&[
        TenantSpec {
            id: 0,
            weight: 3,
            kv_cap_bytes: u64::MAX,
            max_in_flight: 0,
        },
        TenantSpec {
            id: 1,
            weight: 1,
            kv_cap_bytes: pool / 3,
            max_in_flight: 2,
        },
    ]);
    let config = EventConfig::new(BatchConfig::fused(4).with_tenants(policy), 0.2);
    let go = || {
        kernel(server(7, 0.4), 12, config)
            .run(&arrivals)
            .expect("run")
    };
    golden::assert_same("tenanted replay", &go(), &go());
}
