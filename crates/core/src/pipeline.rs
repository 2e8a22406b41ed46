//! The end-to-end measurement pipeline: one UAV (or motorbike) node
//! streaming adaptive RTP video over the simulated LTE access + WAN to the
//! remote-pilot server, with CC feedback flowing back.
//!
//! ```text
//!       sender (UAV payload)                 receiver (AWS server)
//! source ─► encoder ─► packetizer ─► CC ──► LTE uplink ─► WAN ──► RTCP recorders
//!    ▲                                │                        ─► jitter buffer
//!    └── target bitrate ◄── feedback ◄┴─ WAN ◄─ LTE downlink ◄── feedback timer
//!                                                 jitter buffer ─► depacketizer
//!                                                   ─► SSIM ─► player ─► metrics
//! ```
//!
//! The stages it shares with the multipath driver live in the
//! `flight` module; this module keeps the single-path policy: the
//! altitude loss draw, the encode-latency queue, PLI recovery, jitter-target
//! inflation, and the deadline set that lets the shared loop skip idle
//! ticks. Radio state updates every 100 ms (the modem cadence). One
//! [`Simulation::run`] is one measurement run of the campaign.

use std::collections::VecDeque;

use bytes::Bytes;
use rpav_lte::{NetworkProfile, RadioModel};
use rpav_netem::{FaultScript, Packet, PacketKind};
use rpav_rtp::jitter::JitterConfig;
use rpav_rtp::nack::{Nack, NackConfig, NackGenerator};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::pli::Pli;
use rpav_rtp::rtx::{RtxConfig, RtxSender};
use rpav_sim::{RngSet, SimDuration, SimRng, SimTime};
use rpav_uav::{profiles as uav_profiles, Position};

use crate::cc::CcEngine;
use crate::flight::{self, CcFeedback, Flight, FlightCore, Link, MEDIA_SSRC};
use crate::metrics::{RadioTraceRow, RunMetrics};
use crate::paths;
use crate::scenario::{ExperimentConfig, Mobility};

/// Minimum spacing between receiver PLIs while the reference chain stays
/// broken (RFC 4585 regulates rapid PLI resends).
const PLI_MIN_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Receiver-observed delivery gap that counts as an outage and inflates
/// the jitter target (graceful degradation under repeated blackouts).
const OUTAGE_GAP: SimDuration = SimDuration::from_secs(1);
/// Jitter-target multiplier per observed outage, and the level cap.
const JITTER_INFLATE_FACTOR: f64 = 1.5;
const JITTER_MAX_LEVEL: u32 = 3;
/// Clean delivery required before one inflation level decays away.
const JITTER_DECAY_AFTER: SimDuration = SimDuration::from_secs(20);
/// SSRC the receiver reports from on the PLI wire.
const RECEIVER_SSRC: u32 = 0x1;

/// One full measurement run.
pub struct Simulation {
    config: ExperimentConfig,
    core: FlightCore,
    radio: RadioModel,
    link: Link,
    extra_loss_prob: f64,
    extra_loss_rng: SimRng,
    cc: CcEngine,
    pending_frames: VecDeque<rpav_video::EncodedFrame>,
    rtx: RtxSender,
    nack_gen: NackGenerator,
    last_pli: Option<SimTime>,
    last_media_arrival: Option<SimTime>,
    jitter_base_target: SimDuration,
    jitter_level: u32,
    last_jitter_event: SimTime,
    /// Wire sequence shared by both directions.
    netem_seq: u64,
    /// Reusable scratch for batch-draining path arrivals each tick.
    arrivals: Vec<Packet>,
}

impl Simulation {
    /// Assemble a run from its configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        let rngs = RngSet::new(config.seed);
        let mut profile = NetworkProfile::new(config.environment, config.operator);
        if let Some(h) = config.hysteresis_override_db {
            profile.handover.hysteresis_db = h;
        }
        if let Some(ttt) = config.ttt_override_ms {
            profile.handover.time_to_trigger = SimDuration::from_millis(ttt);
        }
        let radio = RadioModel::new(&profile, &rngs, config.run_index);
        let plan = match config.mobility {
            Mobility::Air => uav_profiles::paper_flight(Position::ground(0.0, 0.0), config.hold),
            Mobility::Ground => uav_profiles::ground_run(
                Position::ground(0.0, 0.0),
                config.ground_sweeps,
                config.hold,
            ),
        };

        // Both directions: fault injector (bursty PER) → bottleneck → WAN.
        // Radio propagation ≈ 5 ms; WAN ≈ 12.5 ms → lowest RTT ≈ 35 ms
        // (§3.1). Parameters live in [`paths`], shared with multipath.
        let link = Link::new(&rngs, "pipe.ul", "pipe.dl", config.run_index);

        let cc = CcEngine::new(config.cc, config.watchdog);
        let jitter_target = config
            .jitter_target_override_ms
            .map(SimDuration::from_millis)
            .unwrap_or(JitterConfig::default().target);
        let core = FlightCore::new(
            plan,
            config.seed,
            cc.start_bitrate_bps(),
            cc.with_twcc(),
            JitterConfig {
                drop_on_latency: config.drop_on_latency,
                target: jitter_target,
            },
            CcFeedback::new(config.cc, cc.feedback_interval(), 1),
        );

        Simulation {
            config,
            core,
            radio,
            link,
            extra_loss_prob: 0.0,
            extra_loss_rng: rngs.stream_indexed("pipe.extraloss", config.run_index),
            cc,
            pending_frames: VecDeque::new(),
            rtx: RtxSender::new(RtxConfig::default()),
            nack_gen: NackGenerator::new(NackConfig {
                playout_budget: jitter_target,
                ..Default::default()
            }),
            last_pli: None,
            last_media_arrival: None,
            jitter_base_target: jitter_target,
            jitter_level: 0,
            last_jitter_event: SimTime::ZERO,
            netem_seq: 0,
            arrivals: Vec::new(),
        }
    }

    /// Attach a scripted fault campaign to the uplink (media) direction.
    /// The script's RNG derives from the run's seed, so a given
    /// configuration + script is bit-reproducible.
    pub fn with_uplink_script(mut self, script: FaultScript) -> Self {
        // Timed media-direction blackouts become per-outage recovery
        // records in the run's metrics.
        self.core.outage_windows.extend(script.blackout_windows());
        self.with_script(script, true)
    }

    /// Attach a scripted fault campaign to the downlink (feedback)
    /// direction. Feedback-direction blackouts starve the CC but do not
    /// stop media, so they produce no per-outage recovery records.
    pub fn with_downlink_script(self, script: FaultScript) -> Self {
        self.with_script(script, false)
    }

    fn with_script(mut self, script: FaultScript, uplink: bool) -> Self {
        let (path, prefix) = if uplink {
            (&mut self.link.uplink, "pipe.ul")
        } else {
            (&mut self.link.downlink, "pipe.dl")
        };
        let rngs = RngSet::new(self.config.seed);
        paths::attach_script(path, script, &rngs, prefix, self.config.run_index, true);
        self
    }

    /// Attach the same scripted campaign to both directions — the shape of
    /// a true link blackout (coverage loss kills media and feedback alike).
    pub fn with_link_script(self, script: FaultScript) -> Self {
        let cloned = script.clone();
        self.with_uplink_script(script).with_downlink_script(cloned)
    }

    /// Execute the run to completion with the adaptive deadline scheduler
    /// and return its metrics.
    pub fn run(self) -> RunMetrics {
        self.execute(false).0
    }

    /// Execute with the unconditional 1 ms reference loop. The adaptive
    /// scheduler must be byte-identical to this path;
    /// `tests/perf_equivalence.rs` holds it to that.
    pub fn run_reference(self) -> RunMetrics {
        self.execute(true).0
    }

    /// [`Simulation::run`], also reporting how many driver steps the run
    /// took — the denominator for the perf harness's ns/tick figure.
    pub fn run_instrumented(self) -> (RunMetrics, u64) {
        self.execute(false)
    }

    fn execute(mut self, reference: bool) -> (RunMetrics, u64) {
        let flight_end = self.core.flight_end;
        let steps = flight::drive(&mut self, flight_end, reference);
        let metrics = self.core.harvest(
            self.radio.distinct_cells(),
            self.cc.scream_stats(),
            self.cc.watchdog_stats(),
            Some(&self.nack_gen),
            Some(&self.rtx),
            [&self.link],
        );
        (metrics, steps)
    }

    /// Offer one feedback-direction packet to the downlink.
    fn send_feedback(&mut self, now: SimTime, wire: Bytes) {
        self.netem_seq += 1;
        self.link.downlink.enqueue(
            now,
            Packet::new(self.netem_seq, wire, PacketKind::Feedback, now),
        );
    }

    /// Re-derive the jitter target from the base and the inflation level.
    /// The NACK generator's playout budget tracks it: an inflated buffer
    /// buys retransmissions more time to make their deadline.
    fn apply_jitter_target(&mut self) {
        let factor = JITTER_INFLATE_FACTOR.powi(self.jitter_level as i32);
        let us = self.jitter_base_target.as_millis_f64() * factor * 1_000.0;
        let target = SimDuration::from_micros(us as u64);
        self.core.rx.jitter.set_target(target);
        self.nack_gen.set_playout_budget(target);
    }
}

impl Flight for Simulation {
    /// Sources, one per step phase:
    /// - radio cadence (`next_radio`);
    /// - encoder capture grid, while the flight lasts, plus the head of the
    ///   encode-latency queue (`ready_at`);
    /// - CC wakes: pacer token-bucket readiness (with a 1 µs float guard),
    ///   watchdog starvation/backoff edges, SCReAM in-flight expiry;
    /// - link deliveries on both directions plus timed-blackout start edges
    ///   (`next_wake_scripted`: pausing a link is a now-dependent action);
    /// - NACK generator request/abandonment edges, when repair is on;
    /// - the receiver feedback timer;
    /// - jitter-buffer head playout and player display slots (a starved
    ///   player reports `now`, deliberately clamping the driver to per-tick
    ///   stepping while skip-patience logic needs every tick);
    /// - jitter-target decay and PLI-nag edges, while armed.
    fn next_deadline(&self, now: SimTime) -> SimTime {
        let core = &self.core;
        let capture = core.encoder.next_capture();
        let deadlines = [
            (capture < core.flight_end).then_some(capture),
            self.pending_frames.front().map(|f| f.ready_at),
            self.cc.next_wake(now),
            self.link.uplink.next_wake_scripted(now),
            self.link.downlink.next_wake_scripted(now),
            if self.config.repair {
                self.nack_gen.next_wake()
            } else {
                None
            },
            core.feedback.next_wake(),
            core.rx.jitter.next_wake(),
            core.rx.player.next_wake(),
            (self.jitter_level > 0).then_some(self.last_jitter_event + JITTER_DECAY_AFTER),
            (!core.rx.ref_intact).then(|| self.last_pli.map_or(now, |t| t + PLI_MIN_INTERVAL)),
        ];
        deadlines
            .into_iter()
            .flatten()
            .fold(core.next_radio, SimTime::min)
    }

    fn step(&mut self, now: SimTime) {
        // 1. Radio tick: re-rate links, register handovers.
        if let Some(pos) = self.core.radio_due(now, self.radio.tick()) {
            let sample = self.radio.step(now, &pos);
            if let Some(ho) = self.link.apply_radio(now, &pos, &sample, None) {
                self.core.metrics.handovers.push(ho);
            }
            self.extra_loss_prob = sample.extra_loss_prob;
            self.core.metrics.radio.push(RadioTraceRow {
                t: now,
                altitude_m: pos.z,
                capacity_bps: sample.uplink_capacity_bps,
                rsrp_dbm: sample.rsrp_dbm,
                sinr_db: sample.sinr_db,
                in_handover: sample.in_handover,
            });
        }

        // 2. Encoder: produce frames while the flight lasts; each leaves
        // the encode-latency queue at its `ready_at`.
        if now < self.core.flight_end {
            while let Some(frame) = self.core.encoder.poll(now) {
                self.pending_frames.push_back(frame);
            }
        }
        while self
            .pending_frames
            .front()
            .is_some_and(|f| f.ready_at <= now)
        {
            let Some(frame) = self.pending_frames.pop_front() else {
                break;
            };
            let packets = &mut self.core.pkt_scratch;
            self.core
                .packetizer
                .packetize_into(frame.meta, frame.meta.encode_time, packets);
            self.cc.enqueue_drain(now, packets);
        }

        // 3. Feedback-starvation watchdogs, then CC-gated transmission.
        // The watchdogs run on the driver tick: they are what lets the
        // sender react to a feedback blackout at all, so the encoder target
        // must follow their cap, not just the feedback arrivals. With
        // repair enabled each packet enters the RTX history ring *before*
        // the altitude loss draw — retransmission exists precisely for
        // packets the network ate.
        let target = self.cc.on_tick(now);
        self.core.encoder.set_target_bitrate(target);
        while let Some(rtp) = self.cc.poll_transmit(now) {
            self.core.metrics.media_sent += 1;
            if self.config.repair {
                self.rtx.record(&rtp);
            }
            if self.extra_loss_rng.chance(self.extra_loss_prob) {
                continue; // high-altitude loss event (§4.2.1)
            }
            self.netem_seq += 1;
            let wire = rtp.serialize();
            self.link.uplink.enqueue(
                now,
                Packet::new(self.netem_seq, wire, PacketKind::Media, now),
            );
        }

        // 3b. Sender-side repair budget: the RTX token bucket refills at a
        // fraction of whatever the CC currently targets, so repair can
        // never starve fresh media.
        if self.config.repair {
            self.rtx.refill(now, self.cc.target_bps());
        }

        // 4. Uplink arrivals at the server. Corrupted packets are not
        // silently dropped: the damaged bytes go to the hardened parsers,
        // which either reject them (counted as malformed) or survive the
        // flip — exactly what a real receiver without UDP checksums sees.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.link.uplink.drain_due(now, &mut arrivals);
        for pkt in arrivals.drain(..) {
            if pkt.corrupted {
                self.core.metrics.corrupted_arrivals += 1;
            }
            let Ok(rtp) = RtpPacket::parse(pkt.payload.clone()) else {
                self.core.metrics.malformed_packets += 1;
                continue;
            };
            let owd = now.saturating_since(pkt.sent_at);
            if !self
                .core
                .accept_media(now, &rtp, owd, Some(&mut self.nack_gen))
            {
                continue;
            }
            // Graceful degradation: delivery resuming after a long gap
            // means an outage happened — inflate the jitter target so
            // subsequent jitter from the recovering link is absorbed
            // instead of causing skips.
            if let Some(prev) = self.last_media_arrival {
                if now.saturating_since(prev) >= OUTAGE_GAP {
                    if self.jitter_level < JITTER_MAX_LEVEL {
                        self.jitter_level += 1;
                        self.core.metrics.jitter_inflations += 1;
                        self.apply_jitter_target();
                    }
                    self.last_jitter_event = now;
                }
            }
            self.last_media_arrival = Some(now);
            self.core.deliver(now, 0, rtp);
        }
        // Sustained clean delivery lets the inflated jitter target decay
        // back toward its base, one level at a time.
        if self.jitter_level > 0
            && now.saturating_since(self.last_jitter_event) >= JITTER_DECAY_AFTER
        {
            self.jitter_level -= 1;
            self.apply_jitter_target();
            self.last_jitter_event = now;
        }
        // 4b. Receiver-side repair: emit the next debounced NACK batch.
        // The generator abandons anything whose playout deadline a
        // round trip can no longer beat; those losses escalate to the
        // reference-break → PLI path below.
        if self.config.repair {
            if let Some(nack) = self.nack_gen.poll(now) {
                self.send_feedback(now, nack.serialize());
            }
        }

        // 5. Receiver feedback timer.
        if self.core.feedback.due(now) {
            if let Some(wire) = self.core.feedback.build(0, now) {
                self.send_feedback(now, wire);
            }
        }

        // 6. Feedback arrivals at the sender. PLIs ride the same RTCP
        // stream as the transport feedback and are discriminated by their
        // FMT/PT bytes; they work under every CC mode, including Static.
        self.link.downlink.drain_due(now, &mut arrivals);
        for pkt in arrivals.drain(..) {
            if pkt.corrupted {
                self.core.metrics.corrupted_arrivals += 1;
            }
            if Pli::parse(pkt.payload.clone()).is_ok() {
                self.core.encoder.force_keyframe();
                self.core.metrics.plis_received += 1;
                continue;
            }
            if let Ok(nack) = Nack::parse(pkt.payload.clone()) {
                // Retransmit verbatim from the history ring, within the
                // repair budget. RTX rides the media direction but is not
                // fresh media: it is neither re-counted as sent nor given
                // a transport-wide sequence, so CC feedback ignores it.
                if self.config.repair {
                    for p in self.rtx.on_nack(&nack) {
                        self.netem_seq += 1;
                        let wire = p.serialize();
                        self.link.uplink.enqueue(
                            now,
                            Packet::new(self.netem_seq, wire, PacketKind::Media, now),
                        );
                    }
                }
                continue;
            }
            if self.cc.on_feedback(pkt.payload.clone(), now) {
                self.core.encoder.set_target_bitrate(self.cc.target_bps());
            } else {
                self.core.metrics.malformed_packets += 1;
            }
        }
        // Hand the (now empty) scratch buffer back for the next tick.
        self.arrivals = arrivals;

        // 7. Jitter buffer → depacketizer → SSIM → player.
        self.core.rx.playout(now, &mut self.core.metrics.frames);

        // 8. Keyframe recovery: while the decoder's reference chain stays
        // broken, nag the sender with rate-limited PLIs until an intact IDR
        // arrives. The PLI travels the feedback direction, so a true link
        // blackout kills it too — recovery then starts when the link does.
        let pli_due = self
            .last_pli
            .is_none_or(|t| now.saturating_since(t) >= PLI_MIN_INTERVAL);
        if !self.core.rx.ref_intact && pli_due {
            let pli = Pli {
                sender_ssrc: RECEIVER_SSRC,
                media_ssrc: MEDIA_SSRC,
            };
            self.send_feedback(now, pli.serialize());
            self.core.metrics.plis_sent += 1;
            self.last_pli = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CcMode;
    use rpav_lte::Environment;

    fn quick(cc: CcMode, env: Environment, mobility: Mobility) -> RunMetrics {
        // Shorter holds to keep unit-test runtime low.
        let cfg = ExperimentConfig::builder()
            .environment(env)
            .mobility(mobility)
            .cc(cc)
            .seed(0xC0FFEE)
            .hold_secs(1)
            .ground_sweeps(1)
            .build();
        Simulation::new(cfg).run()
    }

    #[test]
    fn static_urban_flight_delivers_high_quality_video() {
        let m = quick(
            CcMode::paper_static(Environment::Urban),
            Environment::Urban,
            Mobility::Air,
        );
        // Goodput close to the 25 Mbps static rate.
        assert!(
            m.goodput_bps() > 15e6,
            "goodput {:.1} Mbps",
            m.goodput_bps() / 1e6
        );
        // Loss is tiny (bufferbloat, not drops).
        assert!(m.per() < 0.02, "PER {}", m.per());
        // Playback happened, mostly at high SSIM.
        assert!(m.frames.len() > 1_000, "{} frames", m.frames.len());
        let ssim = m.ssim_samples();
        let good = ssim.iter().filter(|s| **s > 0.8).count() as f64 / ssim.len() as f64;
        assert!(good > 0.7, "only {good:.2} of frames above 0.8 SSIM");
    }

    #[test]
    fn gcc_adapts_in_rural() {
        let m = quick(CcMode::Gcc, Environment::Rural, Mobility::Air);
        // GCC should find a rate in the rural capacity neighbourhood
        // (≈8–12 Mbps) — well above its 2 Mbps start, well below 25.
        let g = m.goodput_bps();
        assert!((3e6..15e6).contains(&g), "goodput {:.1} Mbps", g / 1e6);
        assert!(m.per() < 0.05);
        // One-way latency mostly double-digit ms.
        let owd = m.owd_ms();
        let median = crate::stats::quantile(&owd, 0.5);
        assert!((15.0..150.0).contains(&median), "median OWD {median} ms");
    }

    #[test]
    fn scream_runs_and_discards_on_congestion() {
        let m = quick(CcMode::paper_scream(), Environment::Rural, Mobility::Air);
        let g = m.goodput_bps();
        assert!((2e6..16e6).contains(&g), "goodput {:.1} Mbps", g / 1e6);
        assert!(m.frames.len() > 1_000);
    }

    #[test]
    fn playback_latency_mostly_within_threshold() {
        let m = quick(
            CcMode::paper_static(Environment::Urban),
            Environment::Urban,
            Mobility::Air,
        );
        let frac = m.playback_within(300.0);
        assert!(
            frac > 0.5,
            "only {frac:.2} of playback below 300 ms (expected well above half)"
        );
        // And latencies are ≥ the structural floor (≈ one-way + jitter
        // buffer ≈ 170 ms at minimum... allow decoder slack).
        let lat = m.playback_latency_ms();
        let p5 = crate::stats::quantile(&lat, 0.05);
        assert!(p5 > 100.0, "p5 playback latency {p5} ms is implausibly low");
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = || quick(CcMode::Gcc, Environment::Rural, Mobility::Air);
        let a = run();
        let b = run();
        assert_eq!(a.media_sent, b.media_sent);
        assert_eq!(a.media_received, b.media_received);
        assert_eq!(a.handovers.len(), b.handovers.len());
        assert_eq!(a.frames.len(), b.frames.len());
    }

    #[test]
    fn ground_run_executes() {
        let m = quick(
            CcMode::paper_static(Environment::Urban),
            Environment::Urban,
            Mobility::Ground,
        );
        assert!(m.media_sent > 0);
        assert!(m.frames.len() > 100);
    }
}
