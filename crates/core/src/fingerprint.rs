//! Bit-exact fingerprints of scheduler and fleet results.
//!
//! A fingerprint is an FNV-1a hash over the bits of every
//! [`ServedRequest`] field (scalars via `to_bits`, the full
//! [`ftts_engine::RunStats`] counters, every `LatencyBreakdown` bucket
//! and every completed beam) and every [`BatchRun`] counter. Two runs
//! fingerprint equal only if they agree bit for bit on all of it. The
//! scheduler anchors (`crates/core/tests/golden/`) and the fleet's
//! resumed-vs-replayed check compare runs this way.

use ftts_metrics::{LatencyBreakdown, TimelineOccupancy};

use crate::batch_server::BatchRun;
use crate::fleet::FleetRun;
use crate::server::ServedRequest;

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

    fn breakdown(&mut self, b: &LatencyBreakdown) {
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
            self.f(x);
        }
    }

    fn occupancy(&mut self, o: &TimelineOccupancy) {
        for x in [
            o.span_secs,
            o.busy_secs,
            o.decode_secs,
            o.verify_secs,
            o.swap_secs,
            o.stretch_secs,
        ] {
            self.f(x);
        }
        self.word(o.segments);
        self.word(u64::from(o.max_concurrency));
    }

    fn served(&mut self, r: &ServedRequest) {
        self.f(r.arrived_at);
        self.f(r.started_at);
        self.f(r.finished_at);
        self.word(u64::from(r.preemptions));
        self.f(r.preempted_secs);
        self.word(r.slo as u64);
        self.f(r.deadline);
        self.word(u64::from(r.shed));
        self.word(r.granted_n as u64);
        self.opt(r.outcome.answer);
        let s = &r.outcome.stats;
        self.f(s.completion.latency);
        self.breakdown(&s.completion.breakdown);
        self.word(u64::from(s.iterations));
        self.word(s.decoded_tokens);
        self.word(s.verified_tokens);
        self.word(s.ver_sweeps);
        self.word(u64::from(s.first_finish_cuts));
        self.word(u64::from(s.correct_answer));
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
                self.word(w);
            }
        }
        for w in [
            s.spec.spec_tokens,
            s.spec.spec_tokens_used,
            s.spec.spec_branches,
            s.spec.lookahead_hits,
            s.spec.preempted_branches,
        ] {
            self.word(w);
        }
        let f = &s.faults;
        self.word(u64::from(f.kernel_faults));
        self.word(u64::from(f.retries));
        self.f(f.backoff_secs);
        self.f(f.slowdown_secs);
        self.word(u64::from(f.kv_loss_events));
        self.word(f.lost_blocks);
        self.word(s.beams.len() as u64);
        for b in &s.beams {
            self.word(b.tokens);
            self.f(b.completion_time);
            self.opt(b.answer);
            self.f(b.score);
            self.word(u64::from(b.correct));
        }
    }
}

/// Fingerprint of a served-request list alone (what
/// [`ServerSim::run`](crate::ServerSim::run) returns).
pub fn served_fingerprint(list: &[ServedRequest]) -> u64 {
    let mut h = Fnv::new();
    h.word(list.len() as u64);
    for r in list {
        h.served(r);
    }
    h.0
}

impl BatchRun {
    /// Fingerprint of every served request and every counter except
    /// the [`BatchRun::timeline`] roll-up (the scheduler anchors were
    /// frozen from loops that kept no timeline).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv(served_fingerprint(&self.served));
        for w in [
            self.rounds,
            self.group_iters,
            u64::from(self.preemptions),
            self.peak_reserved_bytes,
            self.pool_bytes,
            self.ver_sweeps,
            self.ver_seqs,
            self.ver_busy_secs.to_bits(),
            u64::from(self.kernel_faults),
            u64::from(self.fault_retries),
            u64::from(self.kv_loss_events),
            self.lost_blocks,
            u64::from(self.shed),
            u64::from(self.cancelled),
            u64::from(self.degradations),
            self.final_reserved_bytes,
            self.kv_tier_hits,
            self.kv_tier_demotions,
            self.kv_tier_parked_bytes,
            self.kv_tier_dropped_bytes,
            self.kv_tier_unparked_bytes,
        ] {
            h.word(w);
        }
        h.word(self.tenant_peak_bytes.len() as u64);
        for &(t, b) in &self.tenant_peak_bytes {
            h.word(u64::from(t));
            h.word(b);
        }
        h.0
    }

    /// [`BatchRun::fingerprint`] extended over the timeline roll-up:
    /// equal only for runs identical on every field.
    pub fn full_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.fingerprint());
        h.occupancy(&self.timeline);
        h.0
    }
}

impl FleetRun {
    /// Fingerprint of a whole fleet run: the winning records, their
    /// serving devices, the migration and hedge counters, the injected
    /// downtime, and every device's run including its timeline roll-up.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv(served_fingerprint(&self.served));
        h.word(self.serving_device.len() as u64);
        for d in &self.serving_device {
            h.word(d.map_or(u64::MAX, |d| d as u64));
        }
        for w in [
            self.migrations,
            self.hedges_launched,
            self.hedges_won,
            self.hedges_wasted,
            self.crash_downtime_secs.to_bits(),
        ] {
            h.word(w);
        }
        h.word(self.device_runs.len() as u64);
        for r in &self.device_runs {
            h.word(r.fingerprint());
            h.occupancy(&r.timeline);
        }
        h.0
    }
}
