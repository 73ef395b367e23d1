//! Bit-exact run fingerprints and the frozen goldens they are checked
//! against.
//!
//! A fingerprint is an FNV-1a hash over the bits of every
//! [`ServedRequest`] field (scalars via `to_bits`, the full
//! [`ftts_engine::RunStats`] counters, every `LatencyBreakdown` bucket
//! and every completed beam) and every [`BatchRun`] counter except the
//! `timeline` occupancy roll-up. Two runs fingerprint equal only if they
//! agree bit for bit on all of it.
//!
//! `anchors.txt` holds the fingerprints of the scheduler anchor
//! fixtures, frozen from the lockstep and event-driven reference loops
//! the single timeline kernel replaced. Each line is `name 0xHASH`;
//! `#` starts a comment.

#![allow(dead_code)]

use ftts_core::{BatchRun, ServedRequest};
use ftts_metrics::LatencyBreakdown;

const ANCHORS: &str = include_str!("anchors.txt");

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn opt(&mut self, x: Option<u32>) {
        self.word(x.map_or(u64::MAX, u64::from));
    }
}

fn breakdown(h: &mut Fnv, b: &LatencyBreakdown) {
    for x in [
        b.generator,
        b.verifier,
        b.recompute,
        b.offload,
        b.swap,
        b.idle,
        b.barrier_idle,
        b.join_wait,
        b.contention,
        b.fault,
    ] {
        h.f(x);
    }
}

fn served(h: &mut Fnv, r: &ServedRequest) {
    h.f(r.arrived_at);
    h.f(r.started_at);
    h.f(r.finished_at);
    h.word(u64::from(r.preemptions));
    h.f(r.preempted_secs);
    h.word(r.slo as u64);
    h.f(r.deadline);
    h.word(u64::from(r.shed));
    h.word(r.granted_n as u64);
    h.opt(r.outcome.answer);
    let s = &r.outcome.stats;
    h.f(s.completion.latency);
    breakdown(h, &s.completion.breakdown);
    h.word(u64::from(s.iterations));
    h.word(s.decoded_tokens);
    h.word(s.verified_tokens);
    h.word(s.ver_sweeps);
    h.word(u64::from(s.first_finish_cuts));
    h.word(u64::from(s.correct_answer));
    for c in [&s.gen_cache, &s.ver_cache] {
        for w in [
            c.evicted_blocks,
            c.evicted_tokens,
            c.recomputed_tokens,
            c.cow_blocks,
            c.swapped_out_blocks,
            c.swapped_in_blocks,
            c.allocated_blocks,
            c.discarded_blocks,
            c.lost_blocks,
        ] {
            h.word(w);
        }
    }
    for w in [
        s.spec.spec_tokens,
        s.spec.spec_tokens_used,
        s.spec.spec_branches,
        s.spec.lookahead_hits,
        s.spec.preempted_branches,
    ] {
        h.word(w);
    }
    let f = &s.faults;
    h.word(u64::from(f.kernel_faults));
    h.word(u64::from(f.retries));
    h.f(f.backoff_secs);
    h.f(f.slowdown_secs);
    h.word(u64::from(f.kv_loss_events));
    h.word(f.lost_blocks);
    h.word(s.beams.len() as u64);
    for b in &s.beams {
        h.word(b.tokens);
        h.f(b.completion_time);
        h.opt(b.answer);
        h.f(b.score);
        h.word(u64::from(b.correct));
    }
}

/// Fingerprint of a served-request list alone (what `ServerSim::run`
/// returns).
pub fn served_fingerprint(list: &[ServedRequest]) -> u64 {
    let mut h = Fnv::new();
    h.word(list.len() as u64);
    for r in list {
        served(&mut h, r);
    }
    h.0
}

/// Fingerprint of a whole scheduler run: every served request plus
/// every counter except the timeline roll-up.
pub fn fingerprint(run: &BatchRun) -> u64 {
    let mut h = Fnv(served_fingerprint(&run.served));
    for w in [
        run.rounds,
        run.group_iters,
        u64::from(run.preemptions),
        run.peak_reserved_bytes,
        run.pool_bytes,
        run.ver_sweeps,
        run.ver_seqs,
        run.ver_busy_secs.to_bits(),
        u64::from(run.kernel_faults),
        u64::from(run.fault_retries),
        u64::from(run.kv_loss_events),
        run.lost_blocks,
        u64::from(run.shed),
        u64::from(run.cancelled),
        u64::from(run.degradations),
        run.final_reserved_bytes,
        run.kv_tier_hits,
        run.kv_tier_demotions,
        run.kv_tier_parked_bytes,
        run.kv_tier_dropped_bytes,
        run.kv_tier_unparked_bytes,
    ] {
        h.word(w);
    }
    h.word(run.tenant_peak_bytes.len() as u64);
    for &(t, b) in &run.tenant_peak_bytes {
        h.word(u64::from(t));
        h.word(b);
    }
    h.0
}

/// Assert two runs are bit-identical (everything but the timeline).
pub fn assert_same(label: &str, a: &BatchRun, b: &BatchRun) {
    assert_eq!(fingerprint(a), fingerprint(b), "{label}: runs differ");
}

/// Assert `run` reproduces the frozen golden `name` bit for bit.
pub fn assert_golden(name: &str, run: &BatchRun) {
    let got = fingerprint(run);
    let want = ANCHORS
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .find_map(|l| {
            let (key, hash) = l.split_once(' ')?;
            (key == name).then(|| hash.trim())
        })
        .unwrap_or_else(|| panic!("no golden named {name} (run fingerprints {got:#018x})"));
    let want = u64::from_str_radix(want.trim_start_matches("0x"), 16).expect("hex golden");
    assert_eq!(
        got, want,
        "{name}: run fingerprints {got:#018x}, golden is {want:#018x}"
    );
}
