//! The flight core: the stages every flight driver shares, and the one
//! loop that drives them.
//!
//! Two drivers fly the paper's flights: the single-path [`Simulation`]
//! (one operator) and the multipath rig ([`crate::multipath`], N modems
//! across two operators). Each stage they have in common exists once,
//! here:
//!
//! * [`FlightCore::new`] sets up the encoder, the packetizer and the
//!   receiver;
//! * [`Link::apply_radio`] applies one radio sample to a path pair (rate,
//!   HARQ extra delay, handover pause, UAV position);
//! * [`CcFeedback`] holds the receiver's CC-feedback recorders (one per
//!   leg when CC is coupled) and builds the TWCC / RFC 8888 wire;
//! * [`Receiver::playout`] runs jitter buffer → depacketizer → SSIM →
//!   player → [`FrameRecord`];
//! * [`FlightCore::harvest`] folds every stage's counters into the run's
//!   [`RunMetrics`].
//!
//! Policy stays in the drivers. The pipeline owns altitude loss, the
//! encode-latency queue, PLI recovery, jitter-target inflation and its
//! adaptive deadline set; the multipath driver owns striping, RS FEC,
//! failover, keep-warm probes and per-leg path reports. Each driver calls
//! the shared stages in its own order from its [`Flight::step`], and
//! [`drive`] runs every driver on the same 1 ms grid.
//!
//! [`Simulation`]: crate::pipeline::Simulation

use bytes::Bytes;
use rpav_lte::RadioSample;
use rpav_netem::Path;
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::nack::{Arrival, NackGenerator};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::packetize::{Depacketizer, Packetizer, ReassembledFrame};
use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Packet};
use rpav_rtp::rtx::RtxSender;
use rpav_rtp::twcc::{TwccFeedback, TwccRecorder};
use rpav_scream::ScreamStats;
use rpav_sim::{RngSet, SimDuration, SimTime, WatchdogStats};
use rpav_uav::{FlightPlan, Position};
use rpav_video::player::{DecodedFrame, PlayedFrame};
use rpav_video::{quality, Encoder, EncoderConfig, Player, PlayerConfig, SourceVideo};

use crate::metrics::{FrameRecord, HandoverRecord, RunMetrics};
use crate::paths;
use crate::scenario::CcMode;

/// Driver tick: the grid every driver steps on.
pub(crate) const TICK: SimDuration = SimDuration::from_millis(1);
/// Extra time after the plan ends for in-flight media to play out.
pub(crate) const DRAIN: SimDuration = SimDuration::from_secs(3);
/// SSRC of the media stream.
pub(crate) const MEDIA_SSRC: u32 = 0x2;
/// Floor under a radio-derived link rate: a link at zero capacity would
/// never serialise again.
const MIN_LINK_BPS: f64 = 50e3;

/// One flight driver on the shared loop.
pub(crate) trait Flight {
    /// Advance every stage to `now`.
    fn step(&mut self, now: SimTime);

    /// Earliest instant at which [`step`](Self::step) can next do anything
    /// the 1 ms reference loop would not also skip. Deadlines may be
    /// early (a premature visit is a no-op) but never late.
    fn next_deadline(&self, now: SimTime) -> SimTime;
}

/// Round an event deadline up to the 1 ms driver grid the reference loop
/// runs on: the adaptive loop may only stop where the reference stops.
fn align_up_to_tick(t: SimTime) -> SimTime {
    SimTime::from_micros((t.as_micros().saturating_add(999) / 1_000).saturating_mul(1_000))
}

/// Step `flight` from t = 0 until `flight_end` plus the playout drain and
/// return the number of steps taken. With `reference` every 1 ms tick is
/// visited; otherwise the loop jumps to each
/// [`next_deadline`](Flight::next_deadline), aligned up to the grid. The
/// two are byte-identical by construction of the deadlines
/// (`tests/perf_equivalence.rs` holds them to it).
pub(crate) fn drive(flight: &mut impl Flight, flight_end: SimTime, reference: bool) -> u64 {
    let end = flight_end + DRAIN;
    // Largest grid instant strictly before `end`: the last tick the
    // reference loop visits. The adaptive loop must always land on it —
    // per-tick state such as the watchdog's feedback-gap stat takes its
    // final sample there.
    let last_tick = SimTime::from_micros((end.as_micros() - 1) / 1_000 * 1_000);
    let mut steps = 0u64;
    let mut t = SimTime::ZERO;
    while t < end {
        steps += 1;
        flight.step(t);
        t = if reference {
            t + TICK
        } else {
            let mut tn = align_up_to_tick(flight.next_deadline(t)).max(t + TICK);
            if tn > last_tick && t < last_tick {
                tn = last_tick;
            }
            tn
        };
    }
    steps
}

/// Both directions of one operator's access link.
pub(crate) struct Link {
    /// Media direction (UAV → server).
    pub uplink: Path,
    /// Feedback direction (server → UAV).
    pub downlink: Path,
}

impl Link {
    /// Build a link whose RNG streams are prefixed `up` and `down`.
    pub fn new(rngs: &RngSet, up: &str, down: &str, run_index: u64) -> Link {
        Link {
            uplink: paths::uplink_path(rngs, up, run_index),
            downlink: paths::downlink_path(rngs, down, run_index),
        }
    }

    /// Apply one radio sample: report the UAV position to positional
    /// script clauses, re-rate both directions (the uplink no higher than
    /// `uplink_cap_bps`, if set), set the HARQ extra delay, and stall both
    /// directions through a handover. Returns the handover's record.
    pub fn apply_radio(
        &mut self,
        now: SimTime,
        pos: &Position,
        sample: &RadioSample,
        uplink_cap_bps: Option<f64>,
    ) -> Option<HandoverRecord> {
        self.uplink.set_position(pos.x, pos.y, pos.z);
        self.downlink.set_position(pos.x, pos.y, pos.z);
        let up_bps = match uplink_cap_bps {
            Some(cap) => sample.uplink_capacity_bps.min(cap),
            None => sample.uplink_capacity_bps,
        };
        self.uplink.set_rate_bps(now, up_bps.max(MIN_LINK_BPS));
        self.downlink
            .set_rate_bps(now, sample.downlink_capacity_bps.max(MIN_LINK_BPS));
        self.uplink.set_extra_delay(sample.retx_delay);
        self.downlink.set_extra_delay(sample.retx_delay);
        let ho = sample.handover?;
        self.uplink.pause_until(now, ho.complete_at);
        self.downlink.pause_until(now, ho.complete_at);
        Some(HandoverRecord {
            at: ho.at,
            het: ho.het(),
            kind: ho.kind,
            from: ho.from.0,
            to: ho.to.0,
        })
    }

    /// Packets the attached fault scripts dropped, both directions.
    fn script_dropped(&self) -> u64 {
        [&self.uplink, &self.downlink]
            .iter()
            .filter_map(|p| p.script_stats())
            .map(|s| s.dropped())
            .sum()
    }
}

/// The receiver's CC-feedback plane: one recorder per feedback stream
/// (a single stream, or one per leg when CC is coupled), the feedback
/// timer, and the TWCC / RFC 8888 build.
pub(crate) struct CcFeedback {
    recorders: Recorders,
    /// Feedback cadence; `None` (Static) never fires.
    interval: Option<SimDuration>,
    next: SimTime,
}

enum Recorders {
    None,
    Twcc {
        recs: Vec<TwccRecorder>,
        /// Reusable feedback value for the build path.
        fb: TwccFeedback,
    },
    Ccfb {
        recs: Vec<Rfc8888Builder>,
        /// Reusable feedback value for the build path.
        pkt: Rfc8888Packet,
    },
}

impl CcFeedback {
    /// `streams` recorders for `cc`'s feedback format, firing every
    /// `interval`.
    pub fn new(cc: CcMode, interval: Option<SimDuration>, streams: usize) -> CcFeedback {
        let recorders = match cc {
            CcMode::Static { .. } => Recorders::None,
            CcMode::Gcc => Recorders::Twcc {
                recs: (0..streams).map(|_| TwccRecorder::new()).collect(),
                fb: TwccFeedback::empty(),
            },
            CcMode::Scream { ack_span } => Recorders::Ccfb {
                recs: (0..streams)
                    .map(|_| Rfc8888Builder::new(ack_span))
                    .collect(),
                pkt: Rfc8888Packet::empty(),
            },
        };
        CcFeedback {
            recorders,
            interval,
            next: SimTime::ZERO,
        }
    }

    /// Record one accepted media arrival on stream `i`.
    pub fn record(&mut self, i: usize, rtp: &RtpPacket, now: SimTime) {
        match &mut self.recorders {
            Recorders::None => {}
            Recorders::Twcc { recs, .. } => {
                if let Some(ts) = rtp.transport_seq {
                    recs[i].on_packet(ts, now);
                }
            }
            Recorders::Ccfb { recs, .. } => recs[i].on_packet(rtp.sequence, now),
        }
    }

    /// Whether the feedback timer fires at `now` (re-arming it if so).
    pub fn due(&mut self, now: SimTime) -> bool {
        match self.interval {
            Some(interval) if now >= self.next => {
                self.next = now + interval;
                true
            }
            _ => false,
        }
    }

    /// The next instant the timer fires, if it ever does.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.interval.map(|_| self.next)
    }

    /// Stream `i`'s pending feedback as wire bytes; `None` when there is
    /// nothing to report.
    pub fn build(&mut self, i: usize, now: SimTime) -> Option<Bytes> {
        match &mut self.recorders {
            Recorders::None => None,
            Recorders::Twcc { recs, fb } => recs[i].build_feedback_into(fb).then(|| fb.serialize()),
            Recorders::Ccfb { recs, pkt } => recs[i].build_into(now, pkt).then(|| pkt.serialize()),
        }
    }
}

/// The receive chain behind the jitter buffer: depacketizer → SSIM →
/// player.
pub(crate) struct Receiver {
    /// The source the SSIM model compares decoded frames against.
    source: SourceVideo,
    pub jitter: JitterBuffer,
    pub depack: Depacketizer,
    pub player: Player,
    /// Whether the decoder's reference chain is intact.
    pub ref_intact: bool,
    last_to_player: Option<u64>,
    /// Reusable scratch for depacketizer drains.
    drained: Vec<ReassembledFrame>,
    /// Reusable scratch for player display/skip events.
    played: Vec<PlayedFrame>,
}

impl Receiver {
    fn new(source: SourceVideo, jitter: JitterConfig) -> Receiver {
        Receiver {
            source,
            jitter: JitterBuffer::new(jitter),
            depack: Depacketizer::new(),
            player: Player::new(PlayerConfig::default()),
            ref_intact: true,
            last_to_player: None,
            drained: Vec::new(),
            played: Vec::new(),
        }
    }

    /// Move everything due at `now` from the jitter buffer through the
    /// depacketizer, score each reassembled frame, and append the
    /// player's display/skip events to `frames`.
    pub fn playout(&mut self, now: SimTime, frames: &mut Vec<FrameRecord>) {
        while let Some((playout, rtp)) = self.jitter.pop_due(now) {
            self.depack.push(&rtp, playout);
        }
        if let Some(highest) = self.depack.highest_frame() {
            self.depack
                .drain_into(highest.saturating_sub(2), &mut self.drained);
            for frame in self.drained.drain(..) {
                let n = frame.meta.frame_number;
                // A gap in delivered frame numbers means a frame vanished
                // entirely: the decoder's reference chain is broken.
                if self.last_to_player.is_some_and(|last| n > last + 1) {
                    self.ref_intact = false;
                }
                self.last_to_player = Some(n);
                let complete = frame.is_complete();
                let ssim = quality::frame_ssim(
                    &self.source,
                    n,
                    frame.meta.frame_bytes,
                    frame.received_fraction(),
                    self.ref_intact,
                );
                // Reference recovers at the next intact keyframe.
                if complete && frame.meta.keyframe {
                    self.ref_intact = true;
                } else if !complete {
                    self.ref_intact = false;
                }
                self.player.push(DecodedFrame {
                    frame_number: n,
                    encode_time: frame.meta.encode_time,
                    ssim,
                });
            }
        }
        self.player.poll_into(now, &mut self.played);
        frames.extend(self.played.drain(..).map(|ev| FrameRecord {
            number: ev.frame_number,
            display_at: ev.display_time,
            latency_ms: ev.latency.map(|l| l.as_millis_f64()),
            ssim: ev.ssim,
            displayed: ev.displayed,
        }));
    }
}

/// What every driver carries: the plan, the sender's encoder and
/// packetizer, the receive chain, the CC-feedback plane and the metrics
/// being recorded.
pub(crate) struct FlightCore {
    pub plan: FlightPlan,
    /// When the plan ends (the encoder stops; the drain begins).
    pub flight_end: SimTime,
    pub encoder: Encoder,
    pub packetizer: Packetizer,
    /// Reusable scratch for freshly packetized frames.
    pub pkt_scratch: Vec<RtpPacket>,
    pub rx: Receiver,
    pub feedback: CcFeedback,
    /// Next radio (modem) cadence instant.
    pub next_radio: SimTime,
    /// Media-direction blackout windows, reported as per-outage recovery
    /// records at the end of the run.
    pub outage_windows: Vec<(SimTime, SimTime)>,
    pub metrics: RunMetrics,
}

impl FlightCore {
    /// Set up the sender (encoder at `start_bps`, packetizer with the
    /// transport-wide sequence extension if `with_twcc`) and the receiver
    /// (jitter buffer per `jitter`) for a flight over `plan`.
    pub fn new(
        plan: FlightPlan,
        seed: u64,
        start_bps: f64,
        with_twcc: bool,
        jitter: JitterConfig,
        feedback: CcFeedback,
    ) -> FlightCore {
        let source = SourceVideo::new(seed ^ 0x5EED);
        FlightCore {
            flight_end: SimTime::ZERO + plan.duration(),
            plan,
            encoder: Encoder::new(EncoderConfig::default(), source, start_bps),
            packetizer: Packetizer::new(MEDIA_SSRC, with_twcc),
            pkt_scratch: Vec::new(),
            rx: Receiver::new(source, jitter),
            feedback,
            next_radio: SimTime::ZERO,
            outage_windows: Vec::new(),
            metrics: RunMetrics::default(),
        }
    }

    /// If the radio cadence fires at `now`, re-arm it `tick` later and
    /// return the UAV position.
    pub fn radio_due(&mut self, now: SimTime, tick: SimDuration) -> Option<Position> {
        if now < self.next_radio {
            return None;
        }
        self.next_radio = now + tick;
        Some(self.plan.position_at(now))
    }

    /// Account one parsed media arrival that crossed the network in `owd`.
    /// With a NACK generator the packet is first classified against its
    /// gap tracker: a stale copy (network duplicate, or an RTX racing its
    /// reordered original) counts as a duplicate and is refused, a late
    /// one is counted, and the one-way delay feeds the RTT hint. Returns
    /// whether the packet was accepted.
    pub fn accept_media(
        &mut self,
        now: SimTime,
        rtp: &RtpPacket,
        owd: SimDuration,
        nack: Option<&mut NackGenerator>,
    ) -> bool {
        let m = &mut self.metrics;
        let owd_ms = owd.as_millis_f64();
        if let Some(ng) = nack {
            match ng.on_packet(now, rtp.sequence) {
                Arrival::Stale => {
                    m.duplicate_packets += 1;
                    return false;
                }
                Arrival::Late => m.late_packets += 1,
                Arrival::InOrder | Arrival::Reordered | Arrival::Recovered => {}
            }
            ng.set_rtt_hint(SimDuration::from_micros((owd_ms * 2_000.0) as u64));
        }
        m.owd.push((now, owd_ms));
        m.media_received += 1;
        m.media_received_bytes += rtp.payload.len() as u64;
        true
    }

    /// Hand an accepted arrival to CC-feedback stream `stream` and to the
    /// jitter buffer.
    pub fn deliver(&mut self, now: SimTime, stream: usize, rtp: RtpPacket) {
        self.feedback.record(stream, &rtp, now);
        self.rx.jitter.push(now, rtp);
    }

    /// The end-of-run harvest: fold the counters of every stage — the
    /// receive chain, the CC plane, the repair plane and the links'
    /// fault scripts — into the run's metrics and hand them over.
    pub fn harvest<'a>(
        &mut self,
        distinct_cells: usize,
        scream: Option<ScreamStats>,
        watchdog: Option<WatchdogStats>,
        nack: Option<&NackGenerator>,
        rtx: Option<&RtxSender>,
        links: impl IntoIterator<Item = &'a Link>,
    ) -> RunMetrics {
        let m = &mut self.metrics;
        m.duration = self.plan.duration();
        let pstats = self.rx.player.stats();
        m.stalls = pstats.stalls;
        m.stalled_time = pstats.stalled_time;
        m.frames_late_discarded = pstats.late_discarded;
        m.distinct_cells = distinct_cells;
        if let Some(ss) = scream {
            m.sender_discarded = ss.queue_discarded;
            m.span_skipped = ss.span_skipped;
        }
        if let Some(w) = watchdog {
            m.watchdog_activations = w.activations;
            m.watchdog_recoveries = w.recoveries;
            m.watchdog_last_ramp = w.last_ramp;
        }
        m.forced_keyframes = self.encoder.forced_keyframes();
        let js = self.rx.jitter.stats();
        m.duplicate_packets += js.duplicates;
        m.late_packets += js.dropped_late;
        m.malformed_payloads = self.rx.depack.malformed_payloads();
        if let Some(ng) = nack {
            let ns = ng.stats();
            m.nacks_sent = ns.nacks_sent;
            m.nack_seqs_requested = ns.seqs_requested;
            m.rtx_recovered = ns.recovered;
            m.rtx_late = ns.late_recovered;
            m.nack_abandoned = ns.abandoned;
        }
        if let Some(r) = rtx {
            let rs = r.stats();
            m.rtx_sent = rs.retransmitted;
            m.rtx_bytes = rs.bytes_retransmitted;
            m.rtx_budget_exhausted = rs.budget_exhausted;
            m.rtx_not_in_history = rs.not_in_history;
        }
        m.script_dropped = links.into_iter().map(Link::script_dropped).sum();
        m.record_outages(&self.outage_windows);
        std::mem::take(m)
    }
}
