//! Host-RAM KV tiering: preempted requests swap their KV down to a
//! capacity-bounded host tier instead of dropping it, and completed
//! prompts publish shared prefixes that later requests for the same
//! problem admit warm from (prefill replaced by a costed swap-in).
//!
//! A Zipf-popular request stream (a hot head re-requested over and
//! over) bursts into a tight device pool, then keeps trickling in as
//! the burst drains. With the tier disabled the run is bit-identical
//! to the pre-tier server; starved, it degrades to drop-and-recompute;
//! ample, it parks every preempted byte and serves the Zipf head warm.
//!
//! ```sh
//! cargo run --release --example kv_tiering
//! ```

use fasttts::{
    zipf_problems, ArrivalPattern, BatchConfig, Dataset, EventConfig, GpuDevice, KvTierConfig,
    ModelPairing, SearchKind, TimelineConfig, TimelineServerSim, TtsServer,
};
use ftts_workload::RequestArrival;

fn server() -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = 13;
    // A tight pool: equal shares shrink until preemption fires.
    s.config_mut().memory_fraction = 0.27;
    s
}

/// Zipf burst + trailing repeats: pressure first, prefix reuse second.
fn arrivals() -> Vec<RequestArrival> {
    let ranked = Dataset::Aime2024.problems(4, 51);
    let drawn = zipf_problems(&ranked, 16, 1.2, 29);
    let mut arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&drawn[..8], 0);
    let mut trail = ArrivalPattern::Uniform { interval: 20.0 }.schedule(&drawn[8..], 0);
    for a in &mut trail {
        a.at += 700.0;
    }
    arrivals.extend(trail);
    arrivals
}

fn main() -> Result<(), fasttts::EngineError> {
    let stream = arrivals();
    println!("16 Zipf-popular AIME requests (4 distinct problems), n=24 beams, 27% memory\n");

    let tiers = [
        ("disabled (legacy)", KvTierConfig::default()),
        ("starved (4 KiB)", KvTierConfig::with_capacity(4096)),
        ("ample (8 GiB)", KvTierConfig::with_capacity(1 << 33)),
    ];
    let mut runs = Vec::new();
    for (label, tier) in tiers {
        let cfg = BatchConfig::continuous(4).with_tier(tier);
        let run = TimelineServerSim::new(
            server(),
            24,
            SearchKind::BeamSearch,
            TimelineConfig::anchored(EventConfig::lockstep(cfg)),
        )
        .run(&stream)?;
        let summary = run.stream_summary();
        println!(
            "{label:<18} goodput {:>7.1} tok/s | preemptions {:>2} | warm hits {} | parked {:>6.1} MiB | dropped {:>6.1} MiB",
            summary.stream_goodput,
            run.preemptions,
            run.kv_tier_hits,
            run.kv_tier_parked_bytes as f64 / (1 << 20) as f64,
            run.kv_tier_dropped_bytes as f64 / (1 << 20) as f64,
        );
        runs.push(run);
    }

    // Placement moves time, never tokens: every tier serves the same
    // answers.
    for run in &runs[1..] {
        for (a, b) in runs[0].served.iter().zip(&run.served) {
            assert_eq!(a.outcome.answer, b.outcome.answer, "tier-invariant answers");
        }
    }

    let (drop_run, swap_run) = (&runs[1], &runs[2]);
    println!(
        "\nample tier: every preempted byte parked ({} dropped), {} warm admissions",
        swap_run.kv_tier_dropped_bytes, swap_run.kv_tier_hits
    );
    println!("starved tier: preemption overflow genuinely dropped, paid back as recompute");
    println!(
        "RESULT kv_tiering: warm_hits={} parked_mib={:.0} dropped_mib={:.0}",
        swap_run.kv_tier_hits,
        swap_run.kv_tier_parked_bytes as f64 / (1 << 20) as f64,
        drop_run.kv_tier_dropped_bytes as f64 / (1 << 20) as f64,
    );
    Ok(())
}
