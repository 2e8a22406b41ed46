//! RFC 4588-style retransmission — the sender half of the loss-repair
//! subsystem.
//!
//! The sender keeps every outgoing media packet in a bounded history ring.
//! When a [`Nack`](crate::nack::Nack) arrives, each requested sequence
//! number still present in the ring is retransmitted **verbatim** (same
//! media sequence number, so the receiver's jitter buffer de-duplicates if
//! the original was merely reordered), minus the transport-wide sequence
//! extension: an RTX carries no new transport sequence, so GCC's TWCC
//! accounting never sees it and SCReAM's RFC 8888 span re-records the
//! repaired media sequence naturally.
//!
//! Repair bandwidth is bounded by a token bucket charged against the
//! congestion controller's current target rate: at most
//! [`RtxConfig::budget_fraction`] of the target may go to repair, so a
//! loss storm cannot starve fresh media (the same idiom as the GCC pacer's
//! `1.5×`-target bucket, pointed the other way).

use std::collections::VecDeque;

use rpav_sim::SimTime;

use crate::nack::Nack;
use crate::packet::RtpPacket;

/// Sender-side retransmission counters, exposed to the run metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtxStats {
    /// NACK feedback packets processed.
    pub nacks_received: u64,
    /// Individual sequence-number requests seen.
    pub seqs_requested: u64,
    /// Packets actually retransmitted.
    pub retransmitted: u64,
    /// Requests for packets that had already left the history ring.
    pub not_in_history: u64,
    /// Requests refused because the repair token bucket was empty.
    pub budget_exhausted: u64,
    /// Total wire bytes spent on retransmissions.
    pub bytes_retransmitted: u64,
}

/// Tunables for the retransmission sender.
#[derive(Clone, Copy, Debug)]
pub struct RtxConfig {
    /// Packets kept in the history ring (≈2 s of full-rate video).
    pub history: usize,
    /// Fraction of the CC target rate the repair bucket refills at.
    pub budget_fraction: f64,
    /// Token-bucket ceiling in bytes (bounds repair burst size).
    pub budget_cap_bytes: f64,
}

impl Default for RtxConfig {
    fn default() -> Self {
        RtxConfig {
            history: 2_048,
            budget_fraction: 0.10,
            budget_cap_bytes: 30_000.0,
        }
    }
}

/// History ring + token-bucket repair budget.
#[derive(Debug)]
pub struct RtxSender {
    config: RtxConfig,
    /// Sent packets as a dense ring: slot `i` holds sequence
    /// `base_seq + i`. Media sequences are handed out consecutively, so
    /// the ring replaces the former `BTreeMap` (whose node churn cost an
    /// allocation every few recorded packets) with index arithmetic; the
    /// deque storage is grown once and reused for the whole run.
    history: VecDeque<Option<RtpPacket>>,
    base_seq: u16,
    /// Live (non-hole) entries in `history`.
    live: usize,
    /// Spendable repair bytes.
    budget_bytes: f64,
    last_refill: SimTime,
    stats: RtxStats,
}

impl RtxSender {
    /// Create a sender with the given tunables.
    pub fn new(config: RtxConfig) -> Self {
        RtxSender {
            config,
            history: VecDeque::with_capacity(config.history),
            base_seq: 0,
            live: 0,
            // Start with a full bucket so early losses are repairable.
            budget_bytes: config.budget_cap_bytes,
            last_refill: SimTime::ZERO,
            stats: RtxStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RtxStats {
        self.stats
    }

    /// Packets currently held in the history ring.
    pub fn history_len(&self) -> usize {
        self.live
    }

    /// Remember an outgoing media packet for possible retransmission.
    pub fn record(&mut self, packet: &RtpPacket) {
        if self.config.history == 0 {
            return;
        }
        if self.history.is_empty() {
            self.base_seq = packet.sequence;
        }
        let offset = packet.sequence.wrapping_sub(self.base_seq) as usize;
        if let Some(slot) = self.history.get_mut(offset) {
            if slot.replace(packet.clone()).is_none() {
                self.live += 1;
            }
        } else if offset <= usize::from(u16::MAX) / 2 {
            // At (the common case) or ahead of the ring end: pad any gap
            // with holes, then append.
            while self.history.len() < offset {
                self.history.push_back(None);
            }
            self.history.push_back(Some(packet.clone()));
            self.live += 1;
        } else {
            // Behind the ring start: re-anchor the front at the packet,
            // padding the gap to the old start with holes. Only what the
            // capacity trim below would keep is pushed: when the packet
            // plus its gap do not fit the free room, the packet and the
            // oldest holes would be trimmed straight away, so just the
            // `room` newest holes go on. A full ring takes no work at all
            // here, however far behind the packet is.
            let behind = self.base_seq.wrapping_sub(packet.sequence) as usize;
            let room = self.config.history - self.history.len();
            if behind <= room {
                for _ in 1..behind {
                    self.history.push_front(None);
                }
                self.history.push_front(Some(packet.clone()));
                self.base_seq = packet.sequence;
                self.live += 1;
            } else {
                for _ in 0..room {
                    self.history.push_front(None);
                }
                self.base_seq = self.base_seq.wrapping_sub(room as u16);
            }
        }
        while self.history.len() > self.config.history {
            if self.history.pop_front().flatten().is_some() {
                self.live -= 1;
            }
            self.base_seq = self.base_seq.wrapping_add(1);
        }
    }

    /// Refill the repair token bucket against the CC's current target
    /// rate. Call once per tick, before [`on_nack`](Self::on_nack).
    pub fn refill(&mut self, now: SimTime, target_bps: f64) {
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.budget_bytes = (self.budget_bytes
            + target_bps * self.config.budget_fraction * dt / 8.0)
            .min(self.config.budget_cap_bytes);
    }

    /// Handle one NACK: returns the packets to retransmit, with the
    /// transport-wide extension stripped so CC feedback ignores them.
    pub fn on_nack(&mut self, nack: &Nack) -> Vec<RtpPacket> {
        self.stats.nacks_received += 1;
        let mut out = Vec::new();
        for &seq in &nack.lost {
            self.stats.seqs_requested += 1;
            let offset = seq.wrapping_sub(self.base_seq) as usize;
            let Some(pkt) = self.history.get(offset).and_then(|s| s.as_ref()) else {
                self.stats.not_in_history += 1;
                continue;
            };
            let mut rtx = pkt.clone();
            rtx.transport_seq = None;
            rtx.wire = None; // stripped extension invalidates the cached wire
            let wire = rtx.wire_size() as f64;
            if self.budget_bytes < wire {
                self.stats.budget_exhausted += 1;
                continue;
            }
            self.budget_bytes -= wire;
            self.stats.retransmitted += 1;
            self.stats.bytes_retransmitted += rtx.wire_size() as u64;
            out.push(rtx);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rpav_sim::{SimDuration, SimRng};

    fn pkt(seq: u16, payload_len: usize) -> RtpPacket {
        RtpPacket {
            marker: false,
            payload_type: 96,
            sequence: seq,
            timestamp: seq as u32 * 3_000,
            ssrc: 0x2,
            transport_seq: Some(seq),
            payload: Bytes::from(vec![0x5A; payload_len]),
            wire: None,
        }
    }

    fn nack(lost: Vec<u16>) -> Nack {
        Nack {
            sender_ssrc: 0x1,
            media_ssrc: 0x2,
            lost,
        }
    }

    #[test]
    fn retransmits_from_history_without_transport_seq() {
        let mut s = RtxSender::new(RtxConfig::default());
        for seq in 0..10 {
            s.record(&pkt(seq, 500));
        }
        let out = s.on_nack(&nack(vec![3, 7]));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sequence, 3);
        assert_eq!(out[1].sequence, 7);
        assert!(out.iter().all(|p| p.transport_seq.is_none()));
        assert_eq!(s.stats().retransmitted, 2);
    }

    #[test]
    fn history_ring_evicts_oldest() {
        let mut s = RtxSender::new(RtxConfig {
            history: 4,
            ..Default::default()
        });
        for seq in 0..10 {
            s.record(&pkt(seq, 100));
        }
        assert_eq!(s.history_len(), 4);
        let out = s.on_nack(&nack(vec![2, 9]));
        assert_eq!(out.len(), 1, "seq 2 must have been evicted");
        assert_eq!(out[0].sequence, 9);
        assert_eq!(s.stats().not_in_history, 1);
    }

    #[test]
    fn budget_bounds_repair_bytes() {
        let mut s = RtxSender::new(RtxConfig {
            budget_cap_bytes: 1_200.0,
            ..Default::default()
        });
        for seq in 0..10 {
            s.record(&pkt(seq, 1_000));
        }
        // Bucket holds ~1 packet of repair; the second request is refused.
        let out = s.on_nack(&nack(vec![1, 2]));
        assert_eq!(out.len(), 1);
        assert_eq!(s.stats().budget_exhausted, 1);
        // Refill at 8 Mbps for 100 ms → 10% × 100 kB = 10 kB, capped at
        // 1.2 kB: one more repair becomes possible.
        s.refill(SimTime::from_millis(100), 8e6);
        let out = s.on_nack(&nack(vec![2]));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn refill_is_rate_proportional() {
        let mut s = RtxSender::new(RtxConfig {
            budget_cap_bytes: 1e9, // effectively uncapped
            ..Default::default()
        });
        s.refill(SimTime::ZERO, 0.0);
        s.refill(SimTime::ZERO + SimDuration::from_secs(1), 8e6);
        // 10% of 8 Mbps for 1 s = 100 kB (plus the initial cap... which is
        // the 1e9 cap here, so measure via spend instead).
        for seq in 0..3 {
            s.record(&pkt(seq, 1_000));
        }
        let out = s.on_nack(&nack(vec![0, 1, 2]));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn duplicate_record_does_not_grow_ring() {
        let mut s = RtxSender::new(RtxConfig {
            history: 4,
            ..Default::default()
        });
        for _ in 0..10 {
            s.record(&pkt(1, 100));
        }
        assert_eq!(s.history_len(), 1);
    }

    /// The former push-then-trim `record`, kept as the reference model of
    /// the ring: a packet behind the ring start pads the front with one
    /// hole per sequence of lag, then the capacity trim pops whatever no
    /// longer fits — O(lag) work per call.
    fn record_push_then_trim(s: &mut RtxSender, packet: &RtpPacket) {
        if s.config.history == 0 {
            return;
        }
        if s.history.is_empty() {
            s.base_seq = packet.sequence;
        }
        let offset = packet.sequence.wrapping_sub(s.base_seq) as usize;
        if let Some(slot) = s.history.get_mut(offset) {
            if slot.replace(packet.clone()).is_none() {
                s.live += 1;
            }
        } else if offset <= usize::from(u16::MAX) / 2 {
            while s.history.len() < offset {
                s.history.push_back(None);
            }
            s.history.push_back(Some(packet.clone()));
            s.live += 1;
        } else {
            let behind = s.base_seq.wrapping_sub(packet.sequence) as usize;
            for _ in 0..behind {
                s.history.push_front(None);
            }
            s.base_seq = packet.sequence;
            s.history[0] = Some(packet.clone());
            s.live += 1;
        }
        while s.history.len() > s.config.history {
            if s.history.pop_front().flatten().is_some() {
                s.live -= 1;
            }
            s.base_seq = s.base_seq.wrapping_add(1);
        }
    }

    /// The sequences held in the ring, slot by slot.
    fn ring(s: &RtxSender) -> Vec<Option<u16>> {
        s.history
            .iter()
            .map(|slot| slot.as_ref().map(|p| p.sequence))
            .collect()
    }

    fn assert_same_ring(fast: &RtxSender, model: &RtxSender, ctx: &str) {
        assert_eq!(fast.base_seq, model.base_seq, "{ctx}: ring base");
        assert_eq!(ring(fast), ring(model), "{ctx}: ring slots");
        assert_eq!(fast.history_len(), model.history_len(), "{ctx}");
        assert!(
            fast.history.len() <= fast.config.history,
            "{ctx}: over capacity"
        );
    }

    /// Drive the reference model and `record` with one random out-of-order
    /// stream and require the same observable state after every call: the
    /// ring itself, `history_len`, the retransmissions a NACK yields and
    /// the stats.
    ///
    /// The stream mostly advances a head sequence, sometimes skips ahead,
    /// re-records recent sequences, and replays lagging ones up to
    /// `max_lag` behind the head — the release order of the coupled
    /// shadow engines, whose slowest queue can trail by thousands.
    fn differential(history: usize, start: u16, records: usize, max_lag: u64, seed: u64) {
        let config = RtxConfig {
            history,
            budget_cap_bytes: 4_000.0,
            ..Default::default()
        };
        let mut model = RtxSender::new(config);
        let mut fast = RtxSender::new(config);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut head = start;
        let mut now = SimTime::ZERO;
        let mut behind_hits = 0usize;
        for i in 0..records {
            let seq = match rng.uniform_u64(0, 10) {
                0..=5 => {
                    head = head.wrapping_add(1);
                    head
                }
                6 => {
                    head = head.wrapping_add(rng.uniform_u64(2, 12) as u16);
                    head
                }
                7 => head.wrapping_sub(rng.uniform_u64(0, 8) as u16),
                _ => head.wrapping_sub(rng.uniform_u64(1, max_lag + 1) as u16),
            };
            if !fast.history.is_empty()
                && seq.wrapping_sub(fast.base_seq) as usize > usize::from(u16::MAX) / 2
            {
                behind_hits += 1;
            }
            let p = pkt(seq, 40 + (i % 7) * 30);
            record_push_then_trim(&mut model, &p);
            fast.record(&p);
            assert_same_ring(&fast, &model, &format!("record {i}"));

            if rng.chance(0.3) {
                now += SimDuration::from_millis(rng.uniform_u64(1, 30));
                model.refill(now, 4e6);
                fast.refill(now, 4e6);
                let lost: Vec<u16> = (0..rng.uniform_u64(1, 5))
                    .map(|_| head.wrapping_sub(rng.uniform_u64(0, 2 * history as u64 + 8) as u16))
                    .collect();
                let a = model.on_nack(&nack(lost.clone()));
                let b = fast.on_nack(&nack(lost));
                let view = |out: &[RtpPacket]| -> Vec<(u16, Vec<u8>)> {
                    out.iter()
                        .map(|p| (p.sequence, p.payload.to_vec()))
                        .collect()
                };
                assert_eq!(view(&b), view(&a), "record {i}: NACK answer");
            }
            assert_eq!(fast.stats(), model.stats(), "record {i}: stats");
        }
        assert!(
            behind_hits > 0,
            "the stream never fell behind the ring start"
        );
    }

    #[test]
    fn re_anchor_matches_push_then_trim_beyond_capacity() {
        // Lags far beyond a small, full ring: every behind record is the
        // O(1) path of the new `record`.
        differential(64, 1_000, 20_000, 20_000, 0xD1FF_0001);
    }

    #[test]
    fn re_anchor_matches_push_then_trim_before_the_ring_fills() {
        // A large ring the stream never fills: behind records that fit the
        // free room and ones that overflow it.
        differential(2_048, 30_000, 1_200, 3_000, 0xD1FF_0002);
    }

    #[test]
    fn re_anchor_matches_push_then_trim_across_the_wrap() {
        // Start just below the u16 wrap so heads, lags and ring slots all
        // straddle 65535 → 0.
        differential(256, 65_000, 6_000, 5_000, 0xD1FF_0003);
    }

    #[test]
    fn re_anchor_matches_push_then_trim_at_the_half_range() {
        // Lags around 2¹⁵ exercise the behind/ahead boundary.
        differential(128, 7, 4_000, 40_000, 0xD1FF_0004);
    }

    #[test]
    fn re_anchor_matches_push_then_trim_at_the_room_boundary() {
        // Six packets in a 16-slot ring leave room for ten: a packet
        // exactly `room` behind still fits, one more sequence behind is
        // trimmed away with its oldest hole.
        let config = RtxConfig {
            history: 16,
            ..Default::default()
        };
        for behind in [1u16, 9, 10, 11, 12, 40] {
            let mut model = RtxSender::new(config);
            let mut fast = RtxSender::new(config);
            for seq in 100..106 {
                record_push_then_trim(&mut model, &pkt(seq, 50));
                fast.record(&pkt(seq, 50));
            }
            let late = pkt(100 - behind, 50);
            record_push_then_trim(&mut model, &late);
            fast.record(&late);
            assert_same_ring(&fast, &model, &format!("{behind} behind"));
            let a = model.on_nack(&nack(vec![100 - behind, 100]));
            let b = fast.on_nack(&nack(vec![100 - behind, 100]));
            assert_eq!(a.len(), b.len(), "{behind} behind");
            assert_eq!(fast.stats(), model.stats(), "{behind} behind");
        }
    }
}
