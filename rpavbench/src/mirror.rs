//! The traced mirror of `rpav_core::Simulation`: the same construction,
//! adaptive scheduler and step phases, rebuilt from each layer's public
//! API so every call can sit inside a [`span!`](crate::span).
//!
//! The mirror is only trusted while its output matches the program: the
//! traced run compares its `RunMetrics` bytes with
//! `Cell::execute_with(false)` for every cell and flags the per-layer
//! numbers stale on any difference. It covers the unscripted pipeline
//! cell (the `flight-single` workload has no fault scripts).

use std::collections::VecDeque;

use rpav_core::cc::{CcEngine, CCFB_INTERVAL, TWCC_INTERVAL};
use rpav_core::metrics::{FrameRecord, HandoverRecord, RadioTraceRow, RunMetrics};
use rpav_core::paths;
use rpav_core::scenario::{CcMode, ExperimentConfig, Mobility};
use rpav_lte::{NetworkProfile, RadioModel};
use rpav_netem::{Packet, PacketKind, Path};
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::nack::{Arrival, Nack, NackConfig, NackGenerator};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::packetize::{Depacketizer, Packetizer, ReassembledFrame};
use rpav_rtp::pli::Pli;
use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Packet};
use rpav_rtp::rtx::{RtxConfig, RtxSender};
use rpav_rtp::twcc::{TwccFeedback, TwccRecorder};
use rpav_sim::{RngSet, SimDuration, SimRng, SimTime};
use rpav_uav::{profiles as uav_profiles, FlightPlan, Position};
use rpav_video::player::{DecodedFrame, PlayedFrame};
use rpav_video::{quality, Encoder, EncoderConfig, Player, PlayerConfig, SourceVideo};

use crate::span;
use crate::trace::{layer, Tracer};

// The pipeline's private constants, restated.
const TICK: SimDuration = SimDuration::from_millis(1);
const DRAIN: SimDuration = SimDuration::from_secs(3);
const PLI_MIN_INTERVAL: SimDuration = SimDuration::from_millis(250);
const OUTAGE_GAP: SimDuration = SimDuration::from_secs(1);
const JITTER_INFLATE_FACTOR: f64 = 1.5;
const JITTER_MAX_LEVEL: u32 = 3;
const JITTER_DECAY_AFTER: SimDuration = SimDuration::from_secs(20);
const RECEIVER_SSRC: u32 = 0x1;
const MEDIA_SSRC: u32 = 0x2;

fn align_up_to_tick(t: SimTime) -> SimTime {
    SimTime::from_micros((t.as_micros().saturating_add(999) / 1_000).saturating_mul(1_000))
}

/// Layer indices, resolved once per mirror.
struct Ids {
    radio: usize,
    path: usize,
    wire: usize,
    packetize: usize,
    feedback: usize,
    jitter: usize,
    repair: usize,
    cc: usize,
    encoder: usize,
    playout: usize,
    metrics: usize,
}

/// What a traced cell reports besides its metrics.
pub struct MirrorStats {
    pub steps: u64,
    /// Highest bottleneck backlog seen on either direction (bytes).
    pub queue_peak_bytes: u64,
    /// Packets dropped by the bottleneck queues and fault injectors.
    pub drops: u64,
}

pub struct Mirror<'t> {
    tr: &'t mut Tracer,
    id: Ids,
    config: ExperimentConfig,
    plan: FlightPlan,
    radio: RadioModel,
    uplink: Path,
    downlink: Path,
    extra_loss_prob: f64,
    extra_loss_rng: SimRng,
    source: SourceVideo,
    encoder: Encoder,
    packetizer: Packetizer,
    cc: CcEngine,
    pending_frames: VecDeque<rpav_video::EncodedFrame>,
    rtx: RtxSender,
    jitter: JitterBuffer,
    depack: Depacketizer,
    nack_gen: NackGenerator,
    player: Player,
    twcc_rec: TwccRecorder,
    ccfb: Rfc8888Builder,
    ref_intact: bool,
    last_frame_to_player: Option<u64>,
    last_pli: Option<SimTime>,
    last_media_arrival: Option<SimTime>,
    jitter_base_target: SimDuration,
    jitter_level: u32,
    last_jitter_event: SimTime,
    next_radio: SimTime,
    next_feedback: SimTime,
    netem_seq: u64,
    arrivals: Vec<Packet>,
    drained: Vec<ReassembledFrame>,
    played: Vec<PlayedFrame>,
    pkt_scratch: Vec<RtpPacket>,
    twcc_fb: TwccFeedback,
    ccfb_pkt: Rfc8888Packet,
    metrics: RunMetrics,
    queue_peak: usize,
}

impl<'t> Mirror<'t> {
    /// `Simulation::new`, with construction charged to each layer.
    pub fn new(config: ExperimentConfig, tr: &'t mut Tracer) -> Self {
        let id = Ids {
            radio: layer("lte.radio"),
            path: layer("netem.path"),
            wire: layer("rtp.wire"),
            packetize: layer("rtp.packetize"),
            feedback: layer("rtp.feedback"),
            jitter: layer("rtp.jitter"),
            repair: layer("rtp.repair"),
            cc: layer(match config.cc {
                CcMode::Gcc => "cc.gcc",
                CcMode::Scream { .. } => "cc.scream",
                CcMode::Static { .. } => "cc.static",
            }),
            encoder: layer("video.encoder"),
            playout: layer("video.playout"),
            metrics: layer("core.metrics"),
        };
        let rngs = RngSet::new(config.seed);
        let mut profile = NetworkProfile::new(config.environment, config.operator);
        if let Some(h) = config.hysteresis_override_db {
            profile.handover.hysteresis_db = h;
        }
        if let Some(ttt) = config.ttt_override_ms {
            profile.handover.time_to_trigger = SimDuration::from_millis(ttt);
        }
        let radio = span!(
            tr,
            id.radio,
            RadioModel::new(&profile, &rngs, config.run_index)
        );
        let plan = match config.mobility {
            Mobility::Air => uav_profiles::paper_flight(Position::ground(0.0, 0.0), config.hold),
            Mobility::Ground => uav_profiles::ground_run(
                Position::ground(0.0, 0.0),
                config.ground_sweeps,
                config.hold,
            ),
        };
        let uplink = span!(
            tr,
            id.path,
            paths::uplink_path(&rngs, "pipe.ul", config.run_index)
        );
        let downlink = span!(
            tr,
            id.path,
            paths::downlink_path(&rngs, "pipe.dl", config.run_index)
        );
        let source = SourceVideo::new(config.seed ^ 0x5EED);
        let cc = span!(tr, id.cc, CcEngine::new(config.cc, config.watchdog));
        let ack_span = match config.cc {
            CcMode::Scream { ack_span } => ack_span,
            _ => 64,
        };
        let encoder = span!(
            tr,
            id.encoder,
            Encoder::new(EncoderConfig::default(), source, cc.start_bitrate_bps())
        );
        let with_twcc = cc.with_twcc();
        let jitter_target = config
            .jitter_target_override_ms
            .map(SimDuration::from_millis)
            .unwrap_or(JitterConfig::default().target);

        Mirror {
            id,
            config,
            plan,
            radio,
            uplink,
            downlink,
            extra_loss_prob: 0.0,
            extra_loss_rng: rngs.stream_indexed("pipe.extraloss", config.run_index),
            source,
            encoder,
            packetizer: Packetizer::new(0x2, with_twcc),
            cc,
            pending_frames: VecDeque::new(),
            rtx: RtxSender::new(RtxConfig::default()),
            jitter: JitterBuffer::new(JitterConfig {
                drop_on_latency: config.drop_on_latency,
                target: jitter_target,
            }),
            depack: Depacketizer::new(),
            nack_gen: NackGenerator::new(NackConfig {
                playout_budget: jitter_target,
                ..Default::default()
            }),
            player: Player::new(PlayerConfig::default()),
            twcc_rec: TwccRecorder::new(),
            twcc_fb: TwccFeedback::empty(),
            ccfb: Rfc8888Builder::new(ack_span),
            ccfb_pkt: Rfc8888Packet::empty(),
            ref_intact: true,
            last_frame_to_player: None,
            last_pli: None,
            last_media_arrival: None,
            jitter_base_target: jitter_target,
            jitter_level: 0,
            last_jitter_event: SimTime::ZERO,
            next_radio: SimTime::ZERO,
            next_feedback: SimTime::ZERO,
            netem_seq: 0,
            arrivals: Vec::new(),
            drained: Vec::new(),
            played: Vec::new(),
            pkt_scratch: Vec::new(),
            metrics: RunMetrics::default(),
            queue_peak: 0,
            tr,
        }
    }

    /// `Simulation::run_fast`: the adaptive deadline scheduler.
    pub fn run(mut self) -> (RunMetrics, MirrorStats) {
        let flight_end = SimTime::ZERO + self.plan.duration();
        let end = flight_end + DRAIN;
        let last_tick = SimTime::from_micros((end.as_micros() - 1) / 1_000 * 1_000);
        let mut t = SimTime::ZERO;
        let mut steps = 0u64;
        while t < end {
            steps += 1;
            self.step(t, flight_end);
            let next = self.next_deadline(t, flight_end);
            let mut tn = align_up_to_tick(next).max(t + TICK);
            if tn > last_tick && t < last_tick {
                tn = last_tick;
            }
            t = tn;
        }
        let id = &self.id;
        let tr = &mut *self.tr;
        self.metrics.duration = self.plan.duration();
        let pstats = span!(tr, id.playout, self.player.stats());
        self.metrics.stalls = pstats.stalls;
        self.metrics.stalled_time = pstats.stalled_time;
        self.metrics.frames_late_discarded = pstats.late_discarded;
        self.metrics.distinct_cells = span!(tr, id.radio, self.radio.distinct_cells());
        if let Some(ss) = span!(tr, id.cc, self.cc.scream_stats()) {
            self.metrics.sender_discarded = ss.queue_discarded;
            self.metrics.span_skipped = ss.span_skipped;
        }
        if let Some(w) = span!(tr, id.cc, self.cc.watchdog_stats()) {
            self.metrics.watchdog_activations = w.activations;
            self.metrics.watchdog_recoveries = w.recoveries;
            self.metrics.watchdog_last_ramp = w.last_ramp;
        }
        self.metrics.forced_keyframes = span!(tr, id.encoder, self.encoder.forced_keyframes());
        let js = span!(tr, id.jitter, self.jitter.stats());
        self.metrics.duplicate_packets += js.duplicates;
        self.metrics.late_packets += js.dropped_late;
        self.metrics.malformed_payloads = span!(tr, id.packetize, self.depack.malformed_payloads());
        let ns = span!(tr, id.repair, self.nack_gen.stats());
        self.metrics.nacks_sent = ns.nacks_sent;
        self.metrics.nack_seqs_requested = ns.seqs_requested;
        self.metrics.rtx_recovered = ns.recovered;
        self.metrics.rtx_late = ns.late_recovered;
        self.metrics.nack_abandoned = ns.abandoned;
        let rs = span!(tr, id.repair, self.rtx.stats());
        self.metrics.rtx_sent = rs.retransmitted;
        self.metrics.rtx_bytes = rs.bytes_retransmitted;
        self.metrics.rtx_budget_exhausted = rs.budget_exhausted;
        self.metrics.rtx_not_in_history = rs.not_in_history;
        self.metrics.script_dropped = 0;
        span!(tr, id.metrics, self.metrics.record_outages(&[]));
        let mut drops = 0;
        for p in [&self.uplink, &self.downlink] {
            drops += p.queue_stats().dropped + p.fault_counters().0;
        }
        let stats = MirrorStats {
            steps,
            queue_peak_bytes: self.queue_peak as u64,
            drops,
        };
        (std::mem::take(&mut self.metrics), stats)
    }

    fn next_deadline(&mut self, now: SimTime, flight_end: SimTime) -> SimTime {
        let id = &self.id;
        let tr = &mut *self.tr;
        let capture = span!(tr, id.encoder, self.encoder.next_capture());
        let deadlines = [
            Some(self.next_radio),
            (capture < flight_end).then_some(capture),
            self.pending_frames.front().map(|f| f.ready_at),
            span!(tr, id.cc, self.cc.next_wake(now)),
            span!(tr, id.path, self.uplink.next_wake_scripted(now)),
            span!(tr, id.path, self.downlink.next_wake_scripted(now)),
            if self.config.repair {
                span!(tr, id.repair, self.nack_gen.next_wake())
            } else {
                None
            },
            (self.next_feedback != SimTime::MAX).then_some(self.next_feedback),
            span!(tr, id.jitter, self.jitter.next_wake()),
            span!(tr, id.playout, self.player.next_wake()),
            (self.jitter_level > 0).then_some(self.last_jitter_event + JITTER_DECAY_AFTER),
            (!self.ref_intact).then(|| self.last_pli.map_or(now, |t| t + PLI_MIN_INTERVAL)),
        ];
        deadlines
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(self.next_radio)
    }

    fn step(&mut self, now: SimTime, flight_end: SimTime) {
        let id = &self.id;
        let tr = &mut *self.tr;
        // 1. Radio tick.
        if now >= self.next_radio {
            self.next_radio = now + span!(tr, id.radio, self.radio.tick());
            let pos = self.plan.position_at(now);
            span!(tr, id.path, self.uplink.set_position(pos.x, pos.y, pos.z));
            span!(tr, id.path, self.downlink.set_position(pos.x, pos.y, pos.z));
            let sample = span!(tr, id.radio, self.radio.step(now, &pos));
            span!(
                tr,
                id.path,
                self.uplink
                    .set_rate_bps(now, sample.uplink_capacity_bps.max(50e3))
            );
            span!(
                tr,
                id.path,
                self.downlink
                    .set_rate_bps(now, sample.downlink_capacity_bps.max(50e3))
            );
            span!(tr, id.path, self.uplink.set_extra_delay(sample.retx_delay));
            span!(
                tr,
                id.path,
                self.downlink.set_extra_delay(sample.retx_delay)
            );
            if let Some(ho) = sample.handover {
                span!(tr, id.path, self.uplink.pause_until(now, ho.complete_at));
                span!(tr, id.path, self.downlink.pause_until(now, ho.complete_at));
                span!(
                    tr,
                    id.metrics,
                    self.metrics.handovers.push(HandoverRecord {
                        at: ho.at,
                        het: ho.het(),
                        kind: ho.kind,
                        from: ho.from.0,
                        to: ho.to.0,
                    })
                );
            }
            self.extra_loss_prob = sample.extra_loss_prob;
            span!(
                tr,
                id.metrics,
                self.metrics.radio.push(RadioTraceRow {
                    t: now,
                    altitude_m: pos.z,
                    capacity_bps: sample.uplink_capacity_bps,
                    rsrp_dbm: sample.rsrp_dbm,
                    sinr_db: sample.sinr_db,
                    in_handover: sample.in_handover,
                })
            );
        }

        // 2. Encoder.
        if now < flight_end {
            while let Some(frame) = span!(tr, id.encoder, self.encoder.poll(now)) {
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
            let mut packets = std::mem::take(&mut self.pkt_scratch);
            span!(
                tr,
                id.packetize,
                self.packetizer
                    .packetize_into(frame.meta, frame.meta.encode_time, &mut packets)
            );
            span!(tr, id.cc, self.cc.enqueue_drain(now, &mut packets));
            self.pkt_scratch = packets;
        }

        // 3. Watchdogs, then CC-gated transmission.
        let target = span!(tr, id.cc, self.cc.on_tick(now));
        span!(tr, id.encoder, self.encoder.set_target_bitrate(target));
        while let Some(rtp) = span!(tr, id.cc, self.cc.poll_transmit(now)) {
            self.metrics.media_sent += 1;
            if self.config.repair {
                span!(tr, id.repair, self.rtx.record(&rtp));
            }
            if self.extra_loss_rng.chance(self.extra_loss_prob) {
                continue;
            }
            self.netem_seq += 1;
            let wire = span!(tr, id.wire, rtp.serialize());
            span!(
                tr,
                id.path,
                self.uplink.enqueue(
                    now,
                    Packet::new(self.netem_seq, wire, PacketKind::Media, now),
                )
            );
        }
        self.queue_peak = self.queue_peak.max(self.uplink.queued_bytes());

        // 3b. Repair budget.
        if self.config.repair {
            let target = span!(tr, id.cc, self.cc.target_bps());
            span!(tr, id.repair, self.rtx.refill(now, target));
        }

        // 4. Uplink arrivals.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        span!(tr, id.path, self.uplink.drain_due(now, &mut arrivals));
        for pkt in arrivals.drain(..) {
            if pkt.corrupted {
                self.metrics.corrupted_arrivals += 1;
            }
            let rtp = match span!(tr, id.wire, RtpPacket::parse(pkt.payload.clone())) {
                Ok(rtp) => rtp,
                Err(_) => {
                    self.metrics.malformed_packets += 1;
                    continue;
                }
            };
            let owd_ms = now.saturating_since(pkt.sent_at).as_millis_f64();
            match span!(tr, id.repair, self.nack_gen.on_packet(now, rtp.sequence)) {
                Arrival::Stale => {
                    self.metrics.duplicate_packets += 1;
                    continue;
                }
                Arrival::Late => self.metrics.late_packets += 1,
                Arrival::InOrder | Arrival::Reordered | Arrival::Recovered => {}
            }
            span!(
                tr,
                id.repair,
                self.nack_gen
                    .set_rtt_hint(SimDuration::from_micros((owd_ms * 2_000.0) as u64))
            );
            span!(tr, id.metrics, self.metrics.owd.push((now, owd_ms)));
            self.metrics.media_received += 1;
            self.metrics.media_received_bytes += rtp.payload.len() as u64;
            if let Some(prev) = self.last_media_arrival {
                if now.saturating_since(prev) >= OUTAGE_GAP {
                    if self.jitter_level < JITTER_MAX_LEVEL {
                        self.jitter_level += 1;
                        self.metrics.jitter_inflations += 1;
                        apply_jitter_target(
                            tr,
                            id,
                            &mut self.jitter,
                            &mut self.nack_gen,
                            self.jitter_base_target,
                            self.jitter_level,
                        );
                    }
                    self.last_jitter_event = now;
                }
            }
            self.last_media_arrival = Some(now);
            match self.config.cc {
                CcMode::Gcc => {
                    if let Some(ts) = rtp.transport_seq {
                        span!(tr, id.feedback, self.twcc_rec.on_packet(ts, now));
                    }
                }
                CcMode::Scream { .. } => {
                    span!(tr, id.feedback, self.ccfb.on_packet(rtp.sequence, now));
                }
                CcMode::Static { .. } => {}
            }
            span!(tr, id.jitter, self.jitter.push(now, rtp));
        }
        if self.jitter_level > 0
            && now.saturating_since(self.last_jitter_event) >= JITTER_DECAY_AFTER
        {
            self.jitter_level -= 1;
            apply_jitter_target(
                tr,
                id,
                &mut self.jitter,
                &mut self.nack_gen,
                self.jitter_base_target,
                self.jitter_level,
            );
            self.last_jitter_event = now;
        }
        // 4b. Receiver-side repair.
        if self.config.repair {
            if let Some(nack) = span!(tr, id.repair, self.nack_gen.poll(now)) {
                self.netem_seq += 1;
                let wire = span!(tr, id.wire, nack.serialize());
                span!(
                    tr,
                    id.path,
                    self.downlink.enqueue(
                        now,
                        Packet::new(self.netem_seq, wire, PacketKind::Feedback, now),
                    )
                );
            }
        }

        // 5. Receiver feedback timers.
        if now >= self.next_feedback {
            match self.config.cc {
                CcMode::Static { .. } => {
                    self.next_feedback = SimTime::MAX;
                }
                CcMode::Gcc => {
                    self.next_feedback = now + TWCC_INTERVAL;
                    if span!(
                        tr,
                        id.feedback,
                        self.twcc_rec.build_feedback_into(&mut self.twcc_fb)
                    ) {
                        let wire = span!(tr, id.feedback, self.twcc_fb.serialize());
                        self.netem_seq += 1;
                        span!(
                            tr,
                            id.path,
                            self.downlink.enqueue(
                                now,
                                Packet::new(self.netem_seq, wire, PacketKind::Feedback, now),
                            )
                        );
                    }
                }
                CcMode::Scream { .. } => {
                    self.next_feedback = now + CCFB_INTERVAL;
                    if span!(
                        tr,
                        id.feedback,
                        self.ccfb.build_into(now, &mut self.ccfb_pkt)
                    ) {
                        let wire = span!(tr, id.feedback, self.ccfb_pkt.serialize());
                        self.netem_seq += 1;
                        span!(
                            tr,
                            id.path,
                            self.downlink.enqueue(
                                now,
                                Packet::new(self.netem_seq, wire, PacketKind::Feedback, now),
                            )
                        );
                    }
                }
            }
        }

        // 6. Feedback arrivals at the sender.
        span!(tr, id.path, self.downlink.drain_due(now, &mut arrivals));
        for pkt in arrivals.drain(..) {
            if pkt.corrupted {
                self.metrics.corrupted_arrivals += 1;
            }
            if span!(tr, id.wire, Pli::parse(pkt.payload.clone())).is_ok() {
                span!(tr, id.encoder, self.encoder.force_keyframe());
                self.metrics.plis_received += 1;
                continue;
            }
            if let Ok(nack) = span!(tr, id.wire, Nack::parse(pkt.payload.clone())) {
                if self.config.repair {
                    for p in span!(tr, id.repair, self.rtx.on_nack(&nack)) {
                        self.netem_seq += 1;
                        let wire = span!(tr, id.wire, p.serialize());
                        span!(
                            tr,
                            id.path,
                            self.uplink.enqueue(
                                now,
                                Packet::new(self.netem_seq, wire, PacketKind::Media, now),
                            )
                        );
                    }
                }
                continue;
            }
            if span!(tr, id.cc, self.cc.on_feedback(pkt.payload.clone(), now)) {
                let target = span!(tr, id.cc, self.cc.target_bps());
                span!(tr, id.encoder, self.encoder.set_target_bitrate(target));
            } else {
                self.metrics.malformed_packets += 1;
            }
        }

        // 7. Jitter buffer → depacketizer → SSIM → player.
        while let Some((playout, rtp)) = span!(tr, id.jitter, self.jitter.pop_due(now)) {
            span!(tr, id.packetize, self.depack.push(&rtp, playout));
        }
        if let Some(highest) = span!(tr, id.packetize, self.depack.highest_frame()) {
            let flush_before = highest.saturating_sub(2);
            let mut drained = std::mem::take(&mut self.drained);
            span!(
                tr,
                id.packetize,
                self.depack.drain_into(flush_before, &mut drained)
            );
            for frame in drained.drain(..) {
                let n = frame.meta.frame_number;
                if let Some(last) = self.last_frame_to_player {
                    if n > last + 1 {
                        self.ref_intact = false;
                    }
                }
                self.last_frame_to_player = Some(n);
                let complete = span!(tr, id.packetize, frame.is_complete());
                let fraction = span!(tr, id.packetize, frame.received_fraction());
                let ssim = span!(
                    tr,
                    id.playout,
                    quality::frame_ssim(
                        &self.source,
                        n,
                        frame.meta.frame_bytes,
                        fraction,
                        self.ref_intact,
                    )
                );
                if complete && frame.meta.keyframe {
                    self.ref_intact = true;
                } else if !complete {
                    self.ref_intact = false;
                }
                span!(
                    tr,
                    id.playout,
                    self.player.push(DecodedFrame {
                        frame_number: n,
                        encode_time: frame.meta.encode_time,
                        ssim,
                    })
                );
            }
            self.drained = drained;
        }
        let mut played = std::mem::take(&mut self.played);
        span!(tr, id.playout, self.player.poll_into(now, &mut played));
        for ev in played.drain(..) {
            span!(
                tr,
                id.metrics,
                self.metrics.frames.push(FrameRecord {
                    number: ev.frame_number,
                    display_at: ev.display_time,
                    latency_ms: ev.latency.map(|l| l.as_millis_f64()),
                    ssim: ev.ssim,
                    displayed: ev.displayed,
                })
            );
        }
        self.played = played;

        // 8. Keyframe recovery.
        let pli_due = match self.last_pli {
            Some(t) => now.saturating_since(t) >= PLI_MIN_INTERVAL,
            None => true,
        };
        if !self.ref_intact && pli_due {
            let pli = Pli {
                sender_ssrc: RECEIVER_SSRC,
                media_ssrc: MEDIA_SSRC,
            };
            self.netem_seq += 1;
            let wire = span!(tr, id.wire, pli.serialize());
            span!(
                tr,
                id.path,
                self.downlink.enqueue(
                    now,
                    Packet::new(self.netem_seq, wire, PacketKind::Feedback, now),
                )
            );
            self.metrics.plis_sent += 1;
            self.last_pli = Some(now);
        }
        self.arrivals = arrivals;
    }
}

/// `Simulation::apply_jitter_target`.
fn apply_jitter_target(
    tr: &mut Tracer,
    id: &Ids,
    jitter: &mut JitterBuffer,
    nack_gen: &mut NackGenerator,
    base: SimDuration,
    level: u32,
) {
    let factor = JITTER_INFLATE_FACTOR.powi(level as i32);
    let us = base.as_millis_f64() * factor * 1_000.0;
    let target = SimDuration::from_micros(us as u64);
    span!(tr, id.jitter, jitter.set_target(target));
    span!(tr, id.repair, nack_gen.set_playout_budget(target));
}
