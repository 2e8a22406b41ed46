//! Multi-operator failover — the paper's future-work direction
//! implemented as a health-monitored active/standby subsystem.
//!
//! §5/Conclusion: "utilizing multiple access links towards the ground
//! station, e.g. multiple cellular operators …, through multipath
//! transport can help improve the reliability of transmissions when one of
//! the underlying networks is experiencing deteriorations", citing the
//! link-diversity design of Bacco et al. \[9\]. One UAV carries **N
//! modems across the two operators** (the paper's own rig carried four
//! dongles across two MNOs; `ExperimentConfig::n_legs` sizes the rig,
//! default two); this module maps the RTP flow onto them under five
//! schemes:
//!
//! * [`SinglePath`](MultipathScheme::SinglePath) — baseline, primary
//!   operator only.
//! * [`Duplicate`](MultipathScheme::Duplicate) — every packet on both
//!   uplinks; the receiver keeps the first copy. Maximum robustness,
//!   2× radio spend.
//! * [`Failover`](MultipathScheme::Failover) — media rides the *active*
//!   leg; the standby is kept warm with low-rate probes so its health
//!   stays measurable. The [`FailoverController`] moves the flow when the
//!   active leg dies (report starvation, RLF) or measurably degrades.
//! * [`SelectiveDuplicate`](MultipathScheme::SelectiveDuplicate) —
//!   failover plus targeted redundancy: keyframes (whose loss breaks the
//!   decoder's reference chain) and packets sent while the active leg's
//!   health is impaired also go out on the standby.
//!
//! The monitoring plane is per-leg: each leg's receiver counters flow
//! back as `PathReport`s (50 ms cadence) on that same leg's downlink, so
//! a dead leg silences its own report stream — which *is* the break
//! detector ([`PathHealth`]'s starvation watchdog). CC feedback instead
//! follows the most recent accepted media arrival, keeping exactly one
//! arrival process inside the congestion controller; across a switch the
//! CC state is carried, with the feedback-starvation watchdog providing
//! the rate cut during the break (DESIGN.md §8).
//!
//! The driver runs on the shared flight core (the `flight` module, also
//! under the single-path pipeline); this module keeps only the leg
//! policy: striping, RS FEC, failover, keep-warm probes and path reports.

use std::collections::{HashSet, VecDeque};

use bytes::Bytes;
use rpav_lte::{NetworkProfile, Operator, RadioModel};
use rpav_netem::{FaultScript, Packet, PacketKind};
use rpav_rtp::fec::{
    rs_recover, RsGroup, RsParityPacket, MAX_FEC_GROUP, MAX_RS_PARITY, RS_FEC_PAYLOAD_TYPE,
};
use rpav_rtp::jitter::JitterConfig;
use rpav_rtp::nack::{Nack, NackConfig, NackGenerator};
use rpav_rtp::packet::{unwrap_seq, RtpPacket};
use rpav_rtp::report::PathReport;
use rpav_rtp::rtx::{RtxConfig, RtxSender};
use rpav_sim::{RngSet, SimDuration, SimTime};
use rpav_uav::{profiles as uav_profiles, Position};

use crate::cc::CoupledCc;
use crate::failover::{FailoverConfig, FailoverController};
use crate::flight::{self, CcFeedback, Flight, FlightCore, Link, MEDIA_SSRC, TICK};
use crate::health::{HealthClass, HealthConfig, PathHealth};
use crate::metrics::{PathHealthSummary, RunMetrics, SwitchRecord};
use crate::paths;
use crate::scenario::{ExperimentConfig, MAX_LEGS};

/// Per-leg receiver-report cadence.
const REPORT_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Standby keep-warm probe cadence (Failover/SelectiveDuplicate).
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Probe payload size (bytes): enough to exercise the path, negligible
/// against video rates (64 B / 20 ms = 25.6 kbit/s).
const PROBE_BYTES: usize = 64;
/// The probe wire payload — a static zero block, shared by every probe
/// so the keep-warm path allocates nothing per send.
static PROBE_PAYLOAD: [u8; PROBE_BYTES] = [0u8; PROBE_BYTES];
/// Sender must have offered at least this many packets to a leg in a
/// report interval before an unmoving receiver counter reads as loss
/// (below it, the leg may simply have had nothing to carry).
const LOSS_MIN_TX: u64 = 10;
/// Bonded reassembly window: recent media packets retained for FEC
/// recovery (bounded; old packets are past their playout deadline).
const MEDIA_WINDOW_CAP: usize = 1024;
/// How long a parity packet waits for its group before being abandoned —
/// the playout deadline (the jitter buffer's 150 ms target): a packet
/// recovered later than this would be dropped as late anyway.
const FEC_RECOVERY_DEADLINE: SimDuration = SimDuration::from_millis(150);
/// Adaptive FEC overhead ratio below which parity is not worth its
/// framing bytes — the controller reads this as "off".
const FEC_MIN_RATIO: f64 = 0.01;
/// Redundancy bump applied while any leg is degraded or dead (elevated
/// blackout risk even before the loss EWMA catches up).
const FEC_RISK_BUMP: f64 = 0.05;
/// Deficit-counter clamp: bounds how much burst credit one leg can bank.
const DEFICIT_CLAMP: f64 = 8.0;
/// Initial NACK hold while the parity layer is armed: a fresh hole is
/// not retransmission-requested until this long after detection, so a
/// parity packet closing the hole's group (group close + cross-leg skew,
/// typically well under this) repairs it without spending the round
/// trip. Holes the parity misses still get NACKed with over half the
/// 150 ms playout budget left.
const FEC_NACK_HOLD: SimDuration = SimDuration::from_millis(40);
/// Per-leg loss-burstiness (EWMA |Δloss| between report samples) per
/// *additional* RS parity shard: a leg alternating 0 ↔ 0.25 interval
/// loss (a Gilbert–Elliott bad-state excursion) reads ≈0.2 and buys the
/// group three extra shards; smooth loss stays at one shard — the XOR
/// overhead point.
const RS_BURST_PER_PARITY: f64 = 0.08;
/// Exploration floor for the bonded scheduler: every live leg's weight
/// is held at no less than this fraction of the strongest leg's. The
/// goodput-proportional weights are a feedback loop — a leg with no
/// traffic measures no goodput and never earns traffic back — so a
/// share of exactly zero is an absorbing state. A guaranteed trickle
/// keeps the starved leg's estimator fed; if the leg can actually
/// carry, the measurements pull its weight back up (and the RTT
/// penalty on saturated legs pushes load over). ≈7 % of stripes at the
/// floor.
const EXPLORE_WEIGHT_FLOOR: f64 = 0.08;

/// How packets are mapped onto the operators' legs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultipathScheme {
    /// Baseline: only the primary operator is used.
    SinglePath,
    /// Redundant: every packet goes out on both operators; the receiver
    /// keeps the first copy.
    Duplicate,
    /// Active/standby: media on the active leg, probes on the standby,
    /// health-triggered switching.
    Failover,
    /// Failover plus duplication of keyframes and of packets sent while
    /// the active leg's health is impaired.
    SelectiveDuplicate,
    /// Packet-level bonding: a deficit-weighted scheduler stripes each
    /// frame's packets across every Up leg (weights from the per-leg
    /// goodput/RTT/loss EWMAs), with loss- and burst-adaptive
    /// Reed–Solomon parity groups crossing legs; falls back to keyframe
    /// duplication when only one leg is Up.
    Bonded,
}

impl MultipathScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MultipathScheme::SinglePath => "single-path",
            MultipathScheme::Duplicate => "duplicate",
            MultipathScheme::Failover => "failover",
            MultipathScheme::SelectiveDuplicate => "sel-duplicate",
            MultipathScheme::Bonded => "bonded",
        }
    }

    /// The original four schemes, baseline first — the set the standing
    /// campaign matrices (and their committed baselines) were built on.
    /// Matrices that must stay bit-identical to those baselines enumerate
    /// this; anything that means "every scheme" must use
    /// [`MultipathScheme::all`], which really is all of them.
    pub fn baseline() -> [MultipathScheme; 4] {
        [
            MultipathScheme::SinglePath,
            MultipathScheme::Duplicate,
            MultipathScheme::Failover,
            MultipathScheme::SelectiveDuplicate,
        ]
    }

    /// Every scheme, baseline first. This used to silently omit `Bonded`
    /// (a fixed `[_; 4]` nobody widened when the fifth scheme landed);
    /// new schemes must be appended here so standing "all schemes"
    /// matrices can never drop one unnoticed.
    pub fn all() -> [MultipathScheme; 5] {
        [
            MultipathScheme::SinglePath,
            MultipathScheme::Duplicate,
            MultipathScheme::Failover,
            MultipathScheme::SelectiveDuplicate,
            MultipathScheme::Bonded,
        ]
    }

    /// Whether the standby leg is kept warm with probes.
    fn probes_standby(&self) -> bool {
        matches!(
            self,
            MultipathScheme::Failover | MultipathScheme::SelectiveDuplicate
        )
    }

    /// Whether the failover controller drives the active leg.
    fn switches(&self) -> bool {
        self.probes_standby()
    }
}

/// One operator: radio model, both path directions, sender-side health
/// state and per-leg wire counters.
struct Leg {
    radio: RadioModel,
    link: Link,
    health: PathHealth,
    /// RNG stream prefix — `mp.{op}` for legs 0/1 (the committed two-leg
    /// baselines), index-qualified beyond.
    stream_prefix: String,
    /// Sender-side wire sequence on this leg's uplink.
    tx_seq: u64,
    /// Receiver-side wire sequence on this leg's downlink.
    dl_seq: u64,
    /// Media + probe packets the sender offered to this uplink.
    tx_offered: u64,
    /// First-transmission media packets scheduled onto this leg (no
    /// duplicates, probes, parity or retransmissions) — the numerator of
    /// the per-leg tx share.
    tx_media: u64,
    /// `tx_offered` snapshot at the last bonded keep-warm probe check: a
    /// leg whose counter did not move carried nothing and gets probed.
    tx_at_probe: u64,
    /// Receiver-side per-leg counters (media and probes alike), sent
    /// back as-is every report interval.
    rx: PathReport,
    next_report: SimTime,
    // Sender-side report differencing state.
    last_report: Option<(PathReport, SimTime)>,
    tx_at_last_report: u64,
}

impl Leg {
    fn new(
        op: Operator,
        leg_index: usize,
        base: &ExperimentConfig,
        rngs: &RngSet,
        radio_index: u64,
    ) -> Leg {
        // `radio_index` decorrelates the legs' fading/handover streams
        // (RadioModel draws from fixed stream names, so the legs would
        // otherwise fade and hand over in lockstep — the opposite of the
        // link diversity the rig exists to exploit).
        let profile = NetworkProfile::new(base.environment, op);
        let radio = RadioModel::new(&profile, rngs, radio_index);
        let prefix = paths::leg_stream_prefix(op.name(), leg_index);
        let link = Link::new(rngs, &prefix, &format!("{prefix}.dl"), base.run_index);
        Leg {
            radio,
            link,
            stream_prefix: prefix,
            health: PathHealth::new(HealthConfig::default()),
            tx_seq: 0,
            dl_seq: 0,
            tx_offered: 0,
            tx_media: 0,
            tx_at_probe: 0,
            rx: PathReport {
                leg: leg_index as u8,
                highest_seq: 0,
                received: 0,
                received_bytes: 0,
                newest_owd_us: 0,
            },
            next_report: SimTime::ZERO,
            last_report: None,
            tx_at_last_report: 0,
        }
    }

    /// Offer one wire payload to this leg's uplink.
    fn send_up(&mut self, now: SimTime, payload: Bytes, kind: PacketKind) {
        self.tx_seq += 1;
        self.tx_offered += 1;
        self.link
            .uplink
            .enqueue(now, Packet::new(self.tx_seq, payload, kind, now));
    }

    /// Offer a redundant copy of a media packet to this leg's uplink.
    fn send_dup(&mut self, now: SimTime, wire: Bytes, metrics: &mut RunMetrics) {
        metrics.dup_tx_packets += 1;
        metrics.dup_tx_bytes += wire.len() as u64;
        self.send_up(now, wire, PacketKind::Media);
    }

    /// Offer one receiver-side payload to this leg's downlink.
    fn send_down(&mut self, now: SimTime, payload: Bytes) {
        self.dl_seq += 1;
        self.link.downlink.enqueue(
            now,
            Packet::new(self.dl_seq, payload, PacketKind::Feedback, now),
        );
    }

    /// Attach a scripted fault campaign to both directions (the shape of
    /// a true link blackout: coverage loss kills media and reports alike).
    fn attach_script(&mut self, script: FaultScript, rngs: &RngSet, run_index: u64) {
        let prefix = &self.stream_prefix;
        let up = &mut self.link.uplink;
        paths::attach_script(up, script.clone(), rngs, prefix, run_index, true);
        let down = &mut self.link.downlink;
        paths::attach_script(
            down,
            script,
            rngs,
            &format!("{prefix}.dl"),
            run_index,
            false,
        );
    }

    /// Fold an arrived `PathReport` into this leg's health estimate.
    fn on_report(&mut self, now: SimTime, report: PathReport, report_sent_at: SimTime) {
        if let Some((prev, prev_at)) = self.last_report {
            let dh = report.highest_seq.saturating_sub(prev.highest_seq);
            let dr = report.received.saturating_sub(prev.received);
            let db = report.received_bytes.saturating_sub(prev.received_bytes);
            let dt = now.saturating_since(prev_at).as_secs_f64();
            let offered = self.tx_offered.saturating_sub(self.tx_at_last_report);
            let loss = if dh > 0 {
                Some(1.0 - (dr.min(dh)) as f64 / dh as f64)
            } else if offered >= LOSS_MIN_TX {
                // We kept sending but the receiver's counters froze: the
                // uplink is eating everything.
                Some(1.0)
            } else {
                None
            };
            if let Some(loss) = loss {
                let rtt_ms = f64::from(report.newest_owd_us) / 1_000.0
                    + now.saturating_since(report_sent_at).as_millis_f64();
                let goodput = if dt > 0.0 { db as f64 * 8.0 / dt } else { 0.0 };
                self.health.on_report(now, rtt_ms, loss, goodput);
            } else {
                // No evidence either way — still counts as a live report
                // stream for the starvation watchdog.
                self.health.keepalive(now);
            }
        } else {
            self.health.keepalive(now);
        }
        self.last_report = Some((report, now));
        self.tx_at_last_report = self.tx_offered;
    }
}

/// Deficit-scheduler weight of one leg: the smoothed goodput estimate
/// derated by loss and penalized by RTT. A Dead leg weighs nothing.
/// Unmeasured legs get optimistic priors — a fresh leg must be
/// schedulable, not invisible, or it never produces the traffic that
/// would measure it.
fn bonded_weight(health: &PathHealth, now: SimTime) -> f64 {
    if health.class(now) == HealthClass::Dead {
        return 0.0;
    }
    let goodput = health.goodput_bps().unwrap_or(5e6).max(1e5);
    let loss = health.loss().unwrap_or(0.0).clamp(0.0, 1.0);
    let rtt = health.rtt_ms().unwrap_or(50.0).max(1.0);
    goodput * (1.0 - loss).max(0.05) / (1.0 + rtt / 100.0)
}

/// Loss-adaptive FEC overhead ratio: ~2× the worst leg's loss EWMA plus a
/// flat bump while any leg is impaired (blackout risk), clamped to the
/// configured cap. Below [`FEC_MIN_RATIO`] the redundancy layer is off.
fn fec_ratio(cap: f64, legs: &[Leg], now: SimTime) -> f64 {
    if cap <= 0.0 {
        return 0.0;
    }
    let mut ratio = 0.0f64;
    for leg in legs.iter() {
        ratio = ratio.max(2.0 * leg.health.loss().unwrap_or(0.0));
        if leg.health.class(now) != HealthClass::Healthy {
            ratio = ratio.max(FEC_RISK_BUMP);
        }
    }
    ratio.min(cap)
}

/// Burst-adaptive parity-shard count: one shard covers independent
/// single losses (the XOR operating point); each
/// [`RS_BURST_PER_PARITY`] of the worst leg's loss-swing EWMA — the
/// Gilbert–Elliott bad-state signature — buys another, up to
/// [`MAX_RS_PARITY`]. Bursts erase *runs* of a striped group, and only
/// multi-shard Reed–Solomon groups survive runs.
fn rs_parity_target(legs: &[Leg]) -> usize {
    let mut burst = 0.0f64;
    for leg in legs.iter() {
        burst = burst.max(leg.health.loss_burstiness());
    }
    (1 + (burst / RS_BURST_PER_PARITY) as usize).min(MAX_RS_PARITY)
}

/// Deficit-weighted leg pick for one packet. Each participating
/// (positive-weight) leg accrues credit in proportion to its normalized
/// weight; the richest account (ties toward the lowest index) pays for
/// the packet. With zero participants the caller keeps offering to leg 0
/// rather than dropping at the sender; a single participant takes the
/// packet without touching the deficit state (so the arithmetic — and
/// every committed two-leg baseline — is bit-identical to the historical
/// hard-coded two-leg expressions).
fn pick_bonded_leg(w: &[f64; MAX_LEGS], deficit: &mut [f64; MAX_LEGS], n: usize) -> usize {
    let mut wsum = 0.0f64;
    let mut live = 0usize;
    let mut last_live = 0usize;
    for (i, &wi) in w.iter().enumerate().take(n) {
        if wi > 0.0 {
            wsum += wi;
            live += 1;
            last_live = i;
        }
    }
    match live {
        0 => 0,
        1 => last_live,
        _ => {
            for i in 0..n {
                if w[i] > 0.0 {
                    deficit[i] += w[i] / wsum;
                }
            }
            let mut p = 0usize;
            for i in 1..n {
                if w[p] <= 0.0 || (w[i] > 0.0 && deficit[i] > deficit[p]) {
                    p = i;
                }
            }
            deficit[p] -= 1.0;
            for i in 0..n {
                if w[i] > 0.0 {
                    deficit[i] = deficit[i].clamp(-DEFICIT_CLAMP, DEFICIT_CLAMP);
                }
            }
            p
        }
    }
}

/// The bonded sender's RS parity state: the accumulating group with its
/// per-leg tx split, the parity sequence counter, and a reusable parity
/// scratch vector.
struct FecTx {
    group: RsGroup,
    group_tx: [u64; MAX_LEGS],
    seq: u16,
    parity_buf: Vec<RsParityPacket>,
}

impl FecTx {
    fn new() -> FecTx {
        FecTx {
            group: RsGroup::new(),
            group_tx: [0; MAX_LEGS],
            seq: 0,
            parity_buf: Vec::with_capacity(MAX_RS_PARITY),
        }
    }

    /// Fold one media packet striped onto leg `pick` into the group,
    /// closing the group once it reaches the stripe's target size.
    fn push(
        &mut self,
        t: SimTime,
        rtp: &RtpPacket,
        pick: usize,
        st: &Stripe,
        legs: &mut [Leg],
        metrics: &mut RunMetrics,
    ) {
        self.group.push(rtp, st.rs_parity);
        self.group_tx[pick] += 1;
        if usize::from(self.group.len()) >= st.group_target {
            self.emit(t, &st.up, legs, metrics);
        }
    }

    /// Close the accumulating group and spread its parity shards across
    /// the legs that carried the fewest of the group's members (maximal
    /// leg diversity: parity should not share fate with the packets it
    /// protects), preferring Up legs; distinct shards of one group land on
    /// distinct legs whenever enough legs exist.
    fn emit(
        &mut self,
        t: SimTime,
        up: &[bool; MAX_LEGS],
        legs: &mut [Leg],
        metrics: &mut RunMetrics,
    ) {
        self.parity_buf.clear();
        self.group.build_into(&mut self.parity_buf);
        let n = legs.len();
        if !self.parity_buf.is_empty() {
            // Candidate legs ordered by (members carried, index), Up legs
            // only — unless none is Up, in which case all legs stand in
            // (parity on a down leg mirrors the media path's own fallback).
            let mut order = [0usize; MAX_LEGS];
            let mut cnt = 0usize;
            for (i, &u) in up.iter().enumerate().take(n) {
                if u {
                    order[cnt] = i;
                    cnt += 1;
                }
            }
            if cnt == 0 {
                for (i, slot) in order.iter_mut().enumerate().take(n) {
                    *slot = i;
                }
                cnt = n;
            }
            for a in 0..cnt {
                let mut best = a;
                for b in a + 1..cnt {
                    if self.group_tx[order[b]] < self.group_tx[order[best]] {
                        best = b;
                    }
                }
                order.swap(a, best);
            }
            for (pi, fp) in self.parity_buf.drain(..).enumerate() {
                self.seq = self.seq.wrapping_add(1);
                let parity = fp.into_rtp(MEDIA_SSRC, self.seq);
                metrics.fec_tx += 1;
                legs[order[pi % cnt]].send_up(t, parity.serialize(), PacketKind::Media);
            }
        }
        self.group_tx = [0; MAX_LEGS];
    }
}

/// One step's bonded scheduler inputs, read only from health clocks:
/// per-leg liveness and weights, and the FEC layer's shape.
struct Stripe {
    up: [bool; MAX_LEGS],
    w: [f64; MAX_LEGS],
    up_count: usize,
    /// Whether cross-leg parity is armed this step.
    fec_on: bool,
    /// Parity shards per RS group.
    rs_parity: usize,
    /// Media packets per RS group.
    group_target: usize,
}

/// Run the multipath experiment over the flight of `base`, under
/// `base.cc`, with the chosen scheme. `base.n_legs` modems participate:
/// even legs ride `base.operator`, odd legs the other one.
///
/// Entry `i` of `leg_scripts` (missing entries mean unscripted) hits both
/// directions of leg `i` — a true link blackout. Correlated cross-leg
/// failures are expressed by giving several legs scripts with
/// overlapping windows. Leg 0's blackout windows become per-outage
/// recovery records; scripts beyond `base.n_legs` are ignored.
pub fn run_multipath(
    base: &ExperimentConfig,
    scheme: MultipathScheme,
    leg_scripts: Vec<Option<FaultScript>>,
) -> RunMetrics {
    MultipathFlight::new(base, scheme, leg_scripts).run(false)
}

/// The multipath driver on the shared flight loop. Its next deadline is
/// always the next 1 ms tick: every scheme steps on every tick, whichever
/// scheduler [`flight::drive`] runs.
pub(crate) struct MultipathFlight {
    base: ExperimentConfig,
    scheme: MultipathScheme,
    n: usize,
    /// The bonded coupled mode: one shadow CC and one feedback stream per
    /// leg.
    coupled: bool,
    core: FlightCore,
    legs: Vec<Leg>,
    /// The CC plane: one engine every leg shares, or (coupled) one shadow
    /// engine per leg behind an aggregate target.
    cc: CoupledCc,
    // Receiver-side cross-leg state. First-copy-wins accounting: the first
    // arrival of an RTP (sequence, timestamp) identity feeds
    // metrics/jitter/CC; later copies only count as duplicates.
    seen: HashSet<u64>,
    /// CC feedback rides the leg of the most recent accepted media arrival.
    last_media_leg: usize,
    /// Bonded reassembly: a bounded window of recent media packets (fuel
    /// for FEC recovery), pending parity shards in arrival order, and the
    /// unwrapped-highest sequence for reorder accounting.
    media_window: VecDeque<RtpPacket>,
    rs_pending: VecDeque<PendingShard>,
    highest_useq: Option<u64>,
    // Loss-repair plumbing, present only when `base.repair` is set.
    nack_gen: Option<NackGenerator>,
    rtx: Option<RtxSender>,
    // Sender-side scheme state.
    controller: FailoverController,
    next_probe: SimTime,
    /// RTP sequences belonging to keyframes, for selective duplication and
    /// the bonded single-leg fallback.
    keyframe_seqs: HashSet<u16>,
    /// Per-leg deficit counters of the bonded scheduler.
    deficit: [f64; MAX_LEGS],
    fec: FecTx,
    /// Per-leg admission batches for the coupled controller.
    per_leg_scratch: Vec<Vec<RtpPacket>>,
}

impl MultipathFlight {
    pub(crate) fn new(
        base: &ExperimentConfig,
        scheme: MultipathScheme,
        leg_scripts: Vec<Option<FaultScript>>,
    ) -> MultipathFlight {
        let rngs = RngSet::new(base.seed);
        let plan = uav_profiles::paper_flight(Position::ground(0.0, 0.0), base.hold);
        let secondary_op = base.secondary_operator();
        let n = base.n_legs.clamp(1, MAX_LEGS);
        let mut legs: Vec<Leg> = (0..n)
            .map(|li| {
                let op = if li % 2 == 0 {
                    base.operator
                } else {
                    secondary_op
                };
                Leg::new(op, li, base, &rngs, base.run_index ^ ((li as u64) << 32))
            })
            .collect();
        let mut outage_windows = Vec::new();
        for (li, script) in leg_scripts.into_iter().take(n).enumerate() {
            if let Some(script) = script {
                if li == 0 {
                    outage_windows.extend(script.blackout_windows());
                }
                legs[li].attach_script(script, &rngs, base.run_index);
            }
        }

        // The bonded coupled mode runs one shadow CC per leg behind an
        // aggregate target, with CC feedback kept per leg: each shadow
        // engine only ever sees its own leg's arrivals, so cross-leg delay
        // variance cannot masquerade as congestion. Every other
        // configuration runs one engine and one feedback stream.
        let coupled = scheme == MultipathScheme::Bonded && base.coupled_cc;
        let engines = if coupled { n } else { 1 };
        let cc = CoupledCc::new(base.cc, base.watchdog, engines);
        let mut core = FlightCore::new(
            plan,
            base.seed,
            cc.start_bitrate_bps(),
            cc.with_twcc(),
            JitterConfig::default(),
            CcFeedback::new(base.cc, cc.feedback_interval(), engines),
        );
        core.outage_windows = outage_windows;

        // With bonded FEC armed, hold fresh NACKs long enough for parity
        // to land: the retransmission path only chases holes FEC missed.
        let fec_armed = scheme == MultipathScheme::Bonded && base.fec_cap > FEC_MIN_RATIO;
        let nack_gen = base.repair.then(|| {
            NackGenerator::new(NackConfig {
                initial_hold: if fec_armed {
                    FEC_NACK_HOLD
                } else {
                    SimDuration::ZERO
                },
                ..Default::default()
            })
        });

        MultipathFlight {
            base: *base,
            scheme,
            n,
            coupled,
            core,
            per_leg_scratch: (0..n).map(|_| Vec::new()).collect(),
            legs,
            cc,
            seen: HashSet::new(),
            last_media_leg: 0,
            media_window: VecDeque::new(),
            rs_pending: VecDeque::new(),
            highest_useq: None,
            nack_gen,
            rtx: base.repair.then(|| RtxSender::new(RtxConfig::default())),
            controller: FailoverController::new(FailoverConfig::default()),
            next_probe: SimTime::ZERO,
            keyframe_seqs: HashSet::new(),
            deficit: [0.0; MAX_LEGS],
            fec: FecTx::new(),
        }
    }

    /// Fly to the end of the drain and harvest the metrics.
    pub(crate) fn run(mut self, reference: bool) -> RunMetrics {
        let flight_end = self.core.flight_end;
        flight::drive(&mut self, flight_end, reference);
        for (li, leg) in self.legs.iter().enumerate() {
            let (healthy, degraded, dead) = leg.health.time_in_class();
            self.core.metrics.path_health.push(PathHealthSummary {
                leg: li as u8,
                time_healthy: healthy,
                time_degraded: degraded,
                time_dead: dead,
                reports: leg.health.reports(),
                final_rtt_ms: leg.health.rtt_ms(),
                final_loss: leg.health.loss(),
                tx_packets: leg.tx_media,
            });
        }
        self.core.harvest(
            self.legs[0].radio.distinct_cells(),
            self.cc.scream_stats(),
            self.cc.watchdog_stats(),
            self.nack_gen.as_ref(),
            self.rtx.as_ref(),
            self.legs.iter().map(|leg| &leg.link),
        )
    }

    /// Radio tick: re-rate links, pause through handovers, feed the health
    /// estimators their radio-layer signals. Handover records keep the
    /// single-path semantics: primary leg only.
    fn radio(&mut self, t: SimTime) {
        let Some(pos) = self.core.radio_due(t, self.legs[0].radio.tick()) else {
            return;
        };
        for (li, leg) in self.legs.iter_mut().enumerate() {
            let s = leg.radio.step(t, &pos);
            let cap = self
                .base
                .leg_cap_bps
                .map(|(cap0, cap1)| if li == 0 { cap0 } else { cap1 });
            let ho = leg.link.apply_radio(t, &pos, &s, cap);
            if let Some(sig) = s.health_signal() {
                leg.health.on_signal(sig);
            }
            if let (0, Some(ho)) = (li, ho) {
                self.core.metrics.handovers.push(ho);
            }
        }
    }

    /// Sender-side health clocks and the switch decision; returns the
    /// active leg.
    fn switch(&mut self, t: SimTime) -> usize {
        for leg in self.legs.iter_mut() {
            leg.health.on_tick(t);
        }
        if !self.scheme.switches() {
            return 0;
        }
        if self.legs.len() >= 2 {
            let mut hrefs: [&PathHealth; MAX_LEGS] = [&self.legs[0].health; MAX_LEGS];
            for (i, leg) in self.legs.iter().enumerate() {
                hrefs[i] = &leg.health;
            }
            if let Some(d) = self.controller.on_tick(t, &hrefs[..self.legs.len()]) {
                self.core.metrics.switches.push(SwitchRecord {
                    at: t,
                    from_leg: d.from as u8,
                    to_leg: d.to as u8,
                    cause: d.cause,
                });
            }
        }
        self.controller.active()
    }

    /// The bonded scheduler's inputs for this step. Computed before
    /// admission so the coupled mode can stripe packets as they enter
    /// their shadow CCs.
    fn stripe(&self, t: SimTime) -> Stripe {
        let n = self.n;
        let bonded = self.scheme == MultipathScheme::Bonded;
        let mut up = [false; MAX_LEGS];
        let mut w = [0.0f64; MAX_LEGS];
        for (li, leg) in self.legs.iter().enumerate() {
            up[li] = leg.health.class(t) != HealthClass::Dead;
            if bonded {
                w[li] = bonded_weight(&leg.health, t);
            }
        }
        if bonded {
            let wmax = w[..n].iter().fold(0.0f64, |a, &b| a.max(b));
            if wmax > 0.0 {
                for li in 0..n {
                    if up[li] {
                        w[li] = w[li].max(EXPLORE_WEIGHT_FLOOR * wmax);
                    }
                }
            }
        }
        let up_count = up[..n].iter().filter(|&&u| u).count();
        let ratio = if bonded {
            fec_ratio(self.base.fec_cap, &self.legs, t)
        } else {
            0.0
        };
        // Cross-leg parity needs at least two legs worth of diversity;
        // with one survivor the redundancy budget moves to keyframe
        // duplication instead.
        let fec_on = ratio >= FEC_MIN_RATIO && up_count >= 2;
        let rs_parity = if fec_on {
            rs_parity_target(&self.legs)
        } else {
            1
        };
        let group_target = if fec_on {
            ((rs_parity as f64 / ratio).round() as usize)
                .clamp(rs_parity.max(2), usize::from(MAX_FEC_GROUP))
        } else {
            usize::from(MAX_FEC_GROUP)
        };
        Stripe {
            up,
            w,
            up_count,
            fec_on,
            rs_parity,
            group_target,
        }
    }

    /// Encoder → packetizer → CC staging. The coupled mode pins each
    /// packet to a leg here (deficit-weighted, in sequence order so RS
    /// groups stay consecutive) and hands it to that leg's shadow engine.
    fn admit(&mut self, t: SimTime, st: &Stripe) {
        if t >= self.core.flight_end {
            return;
        }
        while let Some(frame) = self.core.encoder.poll(t) {
            let packets = &mut self.core.pkt_scratch;
            self.core
                .packetizer
                .packetize_into(frame.meta, frame.meta.encode_time, packets);
            if frame.meta.keyframe
                && matches!(
                    self.scheme,
                    MultipathScheme::SelectiveDuplicate | MultipathScheme::Bonded
                )
            {
                self.keyframe_seqs
                    .extend(packets.iter().map(|p| p.sequence));
                if self.keyframe_seqs.len() > 10_000 {
                    self.keyframe_seqs.clear(); // stale u16 identities
                }
            }
            if !self.coupled {
                self.cc.enqueue_leg_drain(0, t, packets);
                continue;
            }
            for rtp in packets.drain(..) {
                let pick = pick_bonded_leg(&st.w, &mut self.deficit, self.n);
                if st.fec_on {
                    let metrics = &mut self.core.metrics;
                    self.fec.push(t, &rtp, pick, st, &mut self.legs, metrics);
                }
                self.per_leg_scratch[pick].push(rtp);
            }
            for (li, pkts) in self.per_leg_scratch.iter_mut().enumerate() {
                if !pkts.is_empty() {
                    self.cc.enqueue_leg_drain(li, t, pkts);
                }
            }
        }
    }

    /// CC-gated transmission: bonded deficit-weighted striping, or the
    /// active leg plus scheme-driven duplication onto the others.
    fn transmit(&mut self, t: SimTime, st: &Stripe, active: usize) {
        let target = self.cc.on_tick(t);
        self.core.encoder.set_target_bitrate(target);
        if let Some(r) = self.rtx.as_mut() {
            r.refill(t, self.cc.target_bps());
        }
        let metrics = &mut self.core.metrics;
        if !st.fec_on && !self.fec.group.is_empty() {
            // The redundancy window closed mid-group (a leg died, or loss
            // calmed down): emit the partial parity rather than abandoning
            // the packets already folded in.
            self.fec.emit(t, &st.up, &mut self.legs, metrics);
        }
        let n = self.n;
        // Single-leg fallback on a multi-leg rig: repeat keyframe packets
        // on the surviving leg — time diversity where leg diversity is
        // gone. (A one-modem rig is plain single-path; nothing degraded,
        // nothing to compensate.)
        let fallback = !st.fec_on && n >= 2 && st.up_count == 1;
        // Coupled packets were pinned to legs at admission (parity
        // included): each shadow engine paces its own leg.
        for engine in 0..self.cc.n_legs() {
            while let Some(rtp) = self.cc.poll_transmit_leg(engine, t) {
                metrics.media_sent += 1;
                if let Some(r) = self.rtx.as_mut() {
                    r.record(&rtp);
                }
                let wire = rtp.serialize();
                if self.scheme == MultipathScheme::Bonded {
                    let pick = if self.coupled {
                        engine
                    } else {
                        pick_bonded_leg(&st.w, &mut self.deficit, n)
                    };
                    let leg = &mut self.legs[pick];
                    leg.tx_media += 1;
                    leg.send_up(t, wire.clone(), PacketKind::Media);
                    if st.fec_on && !self.coupled {
                        self.fec.push(t, &rtp, pick, st, &mut self.legs, metrics);
                    } else if fallback && self.keyframe_seqs.remove(&rtp.sequence) {
                        leg.send_dup(t, wire, metrics);
                    }
                    continue;
                }
                let dup = match self.scheme {
                    MultipathScheme::Duplicate => true,
                    MultipathScheme::SelectiveDuplicate => {
                        self.keyframe_seqs.remove(&rtp.sequence)
                            || self.legs[active].health.class(t) != HealthClass::Healthy
                    }
                    _ => false,
                };
                self.legs[active].tx_media += 1;
                self.legs[active].send_up(t, wire.clone(), PacketKind::Media);
                if !dup || self.legs.len() < 2 {
                    continue;
                }
                if self.scheme == MultipathScheme::Duplicate {
                    // Full duplication fans out to every other leg.
                    for (li, leg) in self.legs.iter_mut().enumerate() {
                        if li != active {
                            leg.send_dup(t, wire.clone(), metrics);
                        }
                    }
                } else {
                    // Selective duplication buys one copy: the
                    // lowest-indexed standby.
                    self.legs[usize::from(active == 0)].send_dup(t, wire, metrics);
                }
            }
        }
    }

    /// Keep-warm probes: a leg's health is only as fresh as the traffic
    /// crossing it. Failover schemes probe the standby; bonded probes any
    /// leg the scheduler left idle since the last check (Dead legs
    /// especially — without traffic they could never recover).
    fn probe(&mut self, t: SimTime, active: usize) {
        let probe = || Bytes::from_static(&PROBE_PAYLOAD);
        let metrics = &mut self.core.metrics;
        if self.scheme.probes_standby() && t >= self.next_probe {
            self.next_probe = t + PROBE_INTERVAL;
            for (li, leg) in self.legs.iter_mut().enumerate() {
                if li != active {
                    metrics.probes_sent += 1;
                    leg.send_up(t, probe(), PacketKind::Probe);
                }
            }
        } else if self.scheme == MultipathScheme::Bonded && self.n >= 2 && t >= self.next_probe {
            // One-modem rigs have no idle leg to keep warm — the media
            // flow itself is the health traffic, exactly as single-path.
            self.next_probe = t + PROBE_INTERVAL;
            for leg in self.legs.iter_mut() {
                if leg.tx_offered == leg.tx_at_probe {
                    metrics.probes_sent += 1;
                    leg.send_up(t, probe(), PacketKind::Probe);
                }
                leg.tx_at_probe = leg.tx_offered;
            }
        }
    }

    /// Uplink arrivals at the server: per-leg wire accounting first
    /// (reports count everything that crossed the leg), then the media
    /// pipeline for first copies only.
    fn receive_media(&mut self, t: SimTime) {
        let bonded = self.scheme == MultipathScheme::Bonded;
        for (li, leg) in self.legs.iter_mut().enumerate() {
            while let Some(pkt) = leg.link.uplink.poll(t) {
                if pkt.corrupted {
                    self.core.metrics.corrupted_arrivals += 1;
                }
                leg.rx.highest_seq = leg.rx.highest_seq.max(pkt.seq);
                leg.rx.received += 1;
                leg.rx.received_bytes += pkt.payload.len() as u64;
                let owd = t.saturating_since(pkt.sent_at);
                leg.rx.newest_owd_us = owd.as_micros().min(u64::from(u32::MAX)) as u32;
                if pkt.kind == PacketKind::Probe {
                    continue;
                }
                let Ok(rtp) = RtpPacket::parse(pkt.payload.clone()) else {
                    self.core.metrics.malformed_packets += 1;
                    continue;
                };
                if bonded && rtp.payload_type == RS_FEC_PAYLOAD_TYPE {
                    // Parity stream: queued against the playout deadline,
                    // never enters the media pipeline itself.
                    match RsParityPacket::parse_payload(rtp.payload.clone()) {
                        Ok(fp) => queue_parity(&mut self.rs_pending, t, fp),
                        Err(_) => self.core.metrics.malformed_packets += 1,
                    }
                    continue;
                }
                if !self.seen.insert(identity(&rtp)) {
                    self.core.metrics.duplicate_packets += 1;
                    continue;
                }
                if !self.core.accept_media(t, &rtp, owd, self.nack_gen.as_mut()) {
                    continue;
                }
                self.last_media_leg = li;
                if bonded {
                    // Cross-leg reorder accounting on the unwrapped
                    // sequence, then into the bounded reassembly window.
                    match self.highest_useq {
                        None => self.highest_useq = Some(u64::from(rtp.sequence)),
                        Some(h) => {
                            let u = unwrap_seq(h, rtp.sequence);
                            if u < h {
                                self.core.metrics.reorder_buffered += 1;
                            } else {
                                self.highest_useq = Some(u);
                            }
                        }
                    }
                    remember(&mut self.media_window, &mut self.rs_pending, &rtp);
                }
                self.core.deliver(t, if self.coupled { li } else { 0 }, rtp);
            }
        }
    }

    /// FEC recovery: each pending group's parity shards are pooled and
    /// redeemed against the reassembly window — a group missing up to as
    /// many members as it has shards on hand is rebuilt in one solve,
    /// before the NACK/RTX path ever spends a round trip on the holes.
    /// Cascades to fixpoint (a recovered packet can complete another
    /// group); deadline-expired parity is dropped first.
    ///
    /// A solve is retried only when its inputs changed since it last
    /// failed ([`PendingShard::retry`]); every other solve would fail
    /// again, so skipping it leaves the deque, the window and the order of
    /// the successful solves exactly as re-solving every shard would.
    fn recover_fec(&mut self, t: SimTime) {
        if self.scheme != MultipathScheme::Bonded || self.rs_pending.is_empty() {
            return;
        }
        let metrics = &mut self.core.metrics;
        // Deadlines grow along the deque (each is its arrival tick plus the
        // same budget), so expiry drops a prefix: a surviving shard's
        // later group-mates all survive, and no retained solve changes.
        self.rs_pending.retain(|e| e.deadline >= t);
        loop {
            let mut recovered_any = false;
            let mut i = 0;
            while i < self.rs_pending.len() {
                if !self.rs_pending[i].retry {
                    // Same shards, same window members as the last failed
                    // solve: it would fail again.
                    i += 1;
                    continue;
                }
                // Gather every shard of the group anchored at `i` (later
                // arrivals of the same group sit further down the deque)
                // into a fixed scratch array.
                let mut remove_idx = [0usize; MAX_RS_PARITY];
                let group = group_of(&self.rs_pending[i].shard);
                let (recs, remove_cnt) = {
                    let first = &self.rs_pending[i].shard;
                    let mut refs: [&RsParityPacket; MAX_RS_PARITY] = [first; MAX_RS_PARITY];
                    remove_idx[0] = i;
                    let mut cnt = 1usize;
                    for (j, e) in self.rs_pending.iter().enumerate().skip(i + 1) {
                        if cnt < MAX_RS_PARITY && group_of(&e.shard) == group {
                            refs[cnt] = &e.shard;
                            remove_idx[cnt] = j;
                            cnt += 1;
                        }
                    }
                    (
                        rs_recover(&refs[..cnt], self.media_window.iter(), MEDIA_SSRC),
                        cnt,
                    )
                };
                let Some(recs) = recs else {
                    // Still short of survivors (or damaged shards): leave
                    // the group pending until its inputs change.
                    self.rs_pending[i].retry = false;
                    i += 1;
                    continue;
                };
                for k in (0..remove_cnt).rev() {
                    self.rs_pending.remove(remove_idx[k]);
                }
                // Group-mates still pending pooled some of the removed
                // shards into their own solves: those inputs changed.
                for e in self.rs_pending.iter_mut() {
                    if group_of(&e.shard) == group {
                        e.retry = true;
                    }
                }
                if recs.is_empty() {
                    // Nothing was missing; the group retires unused.
                    continue;
                }
                recovered_any = true;
                let multi = recs.len() >= 2;
                for rec in recs {
                    if !self.seen.insert(identity(&rec)) {
                        // The original landed after all (late copy or an
                        // RTX won the race): nothing left to repair.
                        continue;
                    }
                    metrics.fec_recovered += 1;
                    if multi {
                        // XOR could never have repaired this packet: its
                        // group lost more than one member.
                        metrics.fec_multi_recovered += 1;
                    }
                    metrics.media_received += 1;
                    metrics.media_received_bytes += rec.payload.len() as u64;
                    if let Some(ng) = self.nack_gen.as_mut() {
                        // Cancels any pending retransmission request for
                        // this sequence.
                        ng.on_packet(t, rec.sequence);
                    }
                    remember(&mut self.media_window, &mut self.rs_pending, &rec);
                    self.core.rx.jitter.push(t, rec);
                }
            }
            if !recovered_any {
                break;
            }
        }
    }

    /// Receiver timers: per-leg path reports on their own downlink, CC
    /// feedback on the last accepted media arrival's leg (each leg's own
    /// stream on its own downlink when coupled), and repair requests
    /// following the CC feedback convention.
    fn receiver_timers(&mut self, t: SimTime) {
        for leg in self.legs.iter_mut() {
            if t >= leg.next_report {
                leg.next_report = t + REPORT_INTERVAL;
                leg.send_down(t, leg.rx.serialize());
            }
        }
        if self.core.feedback.due(t) {
            if self.coupled {
                for (li, leg) in self.legs.iter_mut().enumerate() {
                    if let Some(wire) = self.core.feedback.build(li, t) {
                        leg.send_down(t, wire);
                    }
                }
            } else if let Some(wire) = self.core.feedback.build(0, t) {
                self.legs[self.last_media_leg].send_down(t, wire);
            }
        }
        if let Some(nack) = self.nack_gen.as_mut().and_then(|ng| ng.poll(t)) {
            self.legs[self.last_media_leg].send_down(t, nack.serialize());
        }
    }

    /// Downlink arrivals at the sender: path reports feed health,
    /// everything else is offered to the CC (each leg's feedback to its
    /// own shadow engine in coupled mode).
    fn receive_feedback(&mut self, t: SimTime) {
        let metrics = &mut self.core.metrics;
        for (li, leg) in self.legs.iter_mut().enumerate() {
            while let Some(pkt) = leg.link.downlink.poll(t) {
                if pkt.corrupted {
                    metrics.corrupted_arrivals += 1;
                }
                if let Ok(report) = PathReport::parse(pkt.payload.clone()) {
                    metrics.path_reports_received += 1;
                    leg.on_report(t, report, pkt.sent_at);
                    continue;
                }
                if let Some(r) = self.rtx.as_mut() {
                    if let Ok(nack) = Nack::parse(pkt.payload.clone()) {
                        // Retransmissions ride the leg whose feedback
                        // carried the request — known to be delivering.
                        for p in r.on_nack(&nack) {
                            leg.send_up(t, p.serialize(), PacketKind::Media);
                        }
                        continue;
                    }
                }
                let engine = if self.coupled { li } else { 0 };
                if !self.cc.on_feedback_leg(engine, pkt.payload.clone(), t) {
                    metrics.malformed_packets += 1;
                }
            }
        }
    }
}

impl Flight for MultipathFlight {
    fn next_deadline(&self, now: SimTime) -> SimTime {
        now + TICK
    }

    fn step(&mut self, t: SimTime) {
        self.radio(t);
        let active = self.switch(t);
        let st = self.stripe(t);
        self.admit(t, &st);
        self.transmit(t, &st, active);
        self.probe(t, active);
        self.receive_media(t);
        self.recover_fec(t);
        self.receiver_timers(t);
        self.receive_feedback(t);
        self.core.rx.playout(t, &mut self.core.metrics.frames);
    }
}

/// First-copy-wins identity of an RTP packet: (sequence, timestamp).
fn identity(rtp: &RtpPacket) -> u64 {
    u64::from(rtp.sequence) | (u64::from(rtp.timestamp) << 16)
}

/// A received parity shard waiting for its group to become solvable.
struct PendingShard {
    /// Playout deadline: a member recovered later would be dropped as
    /// late anyway.
    deadline: SimTime,
    shard: RsParityPacket,
    /// The inputs of the solve anchored at this shard changed since it
    /// last failed (or it was never tried). Those inputs are the shard's
    /// later group-mates in the deque and the window members its group
    /// covers, so the flag is raised when a group-mate arrives or leaves,
    /// and when a covered sequence enters or leaves the window.
    retry: bool,
}

/// The group a parity shard belongs to: shards with equal keys are
/// pooled into one solve by [`MultipathFlight::recover_fec`].
fn group_of(p: &RsParityPacket) -> (u16, u8, u8) {
    (p.sn_base, p.count, p.parity_count)
}

/// Queue an arriving parity shard against the playout deadline. Its
/// pending group-mates can now pool one more shard.
fn queue_parity(pending: &mut VecDeque<PendingShard>, t: SimTime, shard: RsParityPacket) {
    let group = group_of(&shard);
    for e in pending.iter_mut() {
        if group_of(&e.shard) == group {
            e.retry = true;
        }
    }
    pending.push_back(PendingShard {
        deadline: t + FEC_RECOVERY_DEADLINE,
        shard,
        retry: true,
    });
}

/// Append a media packet to the bounded reassembly window. Pending
/// shards whose group covers the packet, or the one the cap evicts, see
/// a changed window.
fn remember(
    window: &mut VecDeque<RtpPacket>,
    pending: &mut VecDeque<PendingShard>,
    rtp: &RtpPacket,
) {
    window.push_back(rtp.clone());
    let evicted = if window.len() > MEDIA_WINDOW_CAP {
        window.pop_front().map(|p| p.sequence)
    } else {
        None
    };
    for e in pending.iter_mut() {
        if e.shard.covers(rtp.sequence) || evicted.is_some_and(|seq| e.shard.covers(seq)) {
            e.retry = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scenario::CcMode;
    use crate::stats;
    use rpav_lte::Environment;
    use rpav_netem::FaultScript;

    fn base() -> ExperimentConfig {
        ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(1)
            .build()
    }

    #[test]
    fn duplicate_path_improves_latency_tail() {
        let cfg = base();
        let single = run_multipath(&cfg, MultipathScheme::SinglePath, Vec::new());
        let dual = run_multipath(&cfg, MultipathScheme::Duplicate, Vec::new());
        // Same offered load either way (duplicates are accounted apart).
        assert_eq!(single.media_sent, dual.media_sent);
        assert_eq!(dual.dup_tx_packets, dual.media_sent);
        // Reliability: the duplicate scheme must not lose more...
        assert!(dual.per() <= single.per() + 1e-9);
        // ...and its latency tail must improve (one path's stall is
        // covered by the other).
        let p99_single = stats::quantile(&single.owd_ms(), 0.99);
        let p99_dual = stats::quantile(&dual.owd_ms(), 0.99);
        assert!(
            p99_dual < p99_single,
            "duplicate p99 {p99_dual:.0} ms !< single {p99_single:.0} ms"
        );
        // Playback budget compliance improves too.
        assert!(
            dual.playback_within(300.0) >= single.playback_within(300.0),
            "dual {:.2} vs single {:.2}",
            dual.playback_within(300.0),
            single.playback_within(300.0)
        );
    }

    #[test]
    fn schemes_have_names() {
        for s in MultipathScheme::all() {
            assert!(!s.name().is_empty());
        }
        assert_eq!(MultipathScheme::SinglePath.name(), "single-path");
        assert_eq!(MultipathScheme::Failover.name(), "failover");
        assert_eq!(MultipathScheme::Bonded.name(), "bonded");
    }

    #[test]
    fn baseline_is_all_minus_bonded() {
        let all = MultipathScheme::all();
        let baseline = MultipathScheme::baseline();
        assert_eq!(all.len(), baseline.len() + 1);
        assert_eq!(&all[..baseline.len()], &baseline[..]);
        assert!(!baseline.contains(&MultipathScheme::Bonded));
        assert_eq!(all[all.len() - 1], MultipathScheme::Bonded);
    }

    #[test]
    fn quiet_run_never_switches() {
        let m = run_multipath(&base(), MultipathScheme::Failover, Vec::new());
        assert!(
            m.switches.is_empty(),
            "spurious switches on a healthy run: {:?}",
            m.switches
        );
        assert!(m.probes_sent > 0);
        assert_eq!(m.path_health.len(), 2);
        // Both legs were monitored the whole run.
        assert!(m.path_health.iter().all(|p| p.reports > 50));
    }

    #[test]
    fn blackout_triggers_exactly_one_failover() {
        let cfg = base();
        let fault_at = SimTime::ZERO + SimDuration::from_secs(5);
        let fault_for = SimDuration::from_secs(10);
        let script = || FaultScript::new().blackout(fault_at, fault_for);
        let single = run_multipath(&cfg, MultipathScheme::SinglePath, vec![Some(script())]);
        let fo = run_multipath(&cfg, MultipathScheme::Failover, vec![Some(script())]);
        // Exactly one switch inside the fault window (later radio events
        // elsewhere in the flight may legitimately switch again).
        let in_window: Vec<_> = fo
            .switches
            .iter()
            .filter(|s| s.at >= fault_at && s.at <= fault_at + fault_for)
            .collect();
        assert_eq!(in_window.len(), 1, "{:?}", fo.switches);
        assert_eq!(in_window[0].to_leg, 1);
        assert!(
            fo.stalled_time < single.stalled_time,
            "failover stalled {:?} !< single-path {:?}",
            fo.stalled_time,
            single.stalled_time
        );
        // The primary leg was seen dead for a substantial part of the
        // blackout.
        assert!(fo.path_health[0].time_dead > SimDuration::from_secs(2));
    }

    #[test]
    fn selective_duplicate_copies_only_a_fraction() {
        let mut cfg = base();
        cfg.hold = SimDuration::from_secs(4);
        let sel = run_multipath(&cfg, MultipathScheme::SelectiveDuplicate, Vec::new());
        assert!(sel.dup_tx_packets > 0, "keyframes must be duplicated");
        assert!(
            (sel.dup_tx_packets as f64) < 0.5 * sel.media_sent as f64,
            "selective duplication copied {}/{} packets",
            sel.dup_tx_packets,
            sel.media_sent
        );
    }

    #[test]
    fn leg_report_counter_regression_is_harmless() {
        use rpav_rtp::report::PathReport;
        let cfg = base();
        let rngs = RngSet::new(1);
        let mut leg = Leg::new(cfg.operator, 0, &cfg, &rngs, 0);
        let t0 = SimTime::ZERO + SimDuration::from_millis(50);
        leg.on_report(
            t0,
            PathReport {
                leg: 0,
                highest_seq: 1_000,
                received: 900,
                received_bytes: 1_000_000,
                newest_owd_us: 40_000,
            },
            SimTime::ZERO,
        );
        // Hostile or cross-leg-reordered report: every counter regresses
        // and the timestamps run backwards. Saturating deltas must
        // neither panic nor poison the estimate.
        leg.on_report(
            SimTime::ZERO,
            PathReport {
                leg: 0,
                highest_seq: 10,
                received: 5,
                received_bytes: 100,
                newest_owd_us: u32::MAX,
            },
            t0,
        );
        assert!(leg.health.loss().is_none_or(|l| (0.0..=1.0).contains(&l)));
    }

    #[test]
    fn bonded_splits_media_across_both_legs() {
        let mut cfg = base();
        cfg.hold = SimDuration::from_secs(4);
        let m = run_multipath(&cfg, MultipathScheme::Bonded, Vec::new());
        assert!(m.media_sent > 0);
        let share0 = m.leg_tx_share(0);
        let share1 = m.leg_tx_share(1);
        assert!((share0 + share1 - 1.0).abs() < 1e-9);
        // On two healthy legs the deficit scheduler stripes packets on
        // both — neither leg starves, neither monopolizes.
        assert!(
            (0.15..=0.85).contains(&share0),
            "leg 0 carried {share0:.2} of first transmissions"
        );
        // No parity without a redundancy budget.
        assert_eq!(m.fec_tx, 0);
        assert_eq!(m.fec_recovered, 0);
    }

    #[test]
    fn bonded_goodput_exceeds_best_single_leg_under_asymmetric_caps() {
        let mut cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(4)
            .leg_caps(3.0e6, 2.5e6)
            .build();
        let bonded = run_multipath(&cfg, MultipathScheme::Bonded, Vec::new());
        let single_a = run_multipath(&cfg, MultipathScheme::SinglePath, Vec::new());
        // Best single leg: run single-path on the other leg by swapping
        // the caps (single-path always rides leg 0).
        cfg.leg_cap_bps = Some((2.5e6, 3.0e6));
        let single_b = run_multipath(&cfg, MultipathScheme::SinglePath, Vec::new());
        let best_single = single_a
            .media_received_bytes
            .max(single_b.media_received_bytes);
        assert!(
            bonded.media_received_bytes > best_single,
            "bonded {} B !> best single leg {} B",
            bonded.media_received_bytes,
            best_single
        );
    }

    #[test]
    fn bonded_fec_recovers_losses_before_nack() {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(4)
            .fec_cap(0.25)
            .repair(true)
            .build();
        let window_end = SimDuration::from_secs(30);
        let script = || {
            FaultScript::new().burst_loss_window(
                SimTime::ZERO,
                window_end,
                0.05,
                0.3,
                0.5,
                Some(PacketKind::Media),
            )
        };
        let m = run_multipath(
            &cfg,
            MultipathScheme::Bonded,
            vec![Some(script()), Some(script())],
        );
        assert!(m.script_dropped > 0, "burst script never dropped anything");
        assert!(m.fec_tx > 0, "adaptive ratio never turned FEC on");
        assert!(
            m.fec_recovered > 0,
            "no packet recovered ({} parity tx, {} dropped)",
            m.fec_tx,
            m.script_dropped
        );
    }

    #[test]
    fn bonded_falls_back_to_keyframe_duplication_on_one_leg() {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(4)
            .build();
        // Secondary dies just after its health stream starts (a leg that
        // never reported keeps its startup grace and is never declared
        // dead): bonding degenerates to a single leg, where the
        // redundancy budget buys keyframe repeats.
        let blackout = FaultScript::new().blackout(
            SimTime::ZERO + SimDuration::from_secs(1),
            SimDuration::from_secs(120),
        );
        let m = run_multipath(&cfg, MultipathScheme::Bonded, vec![None, Some(blackout)]);
        assert!(m.dup_tx_packets > 0, "no keyframe repeats on the lone leg");
        assert!(
            (m.dup_tx_packets as f64) < 0.5 * m.media_sent as f64,
            "fallback duplicated {}/{} packets",
            m.dup_tx_packets,
            m.media_sent
        );
        assert_eq!(m.fec_tx, 0, "cross-leg parity with one leg down");
        // Essentially everything after the first second first-flew on the
        // surviving leg.
        assert!(m.leg_tx_share(0) > 0.8, "share {}", m.leg_tx_share(0));
    }

    #[test]
    fn bonded_deterministic_replay_bit_identical() {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(2)
            .fec_cap(0.25)
            .repair(true)
            .build();
        let script = || {
            FaultScript::new().burst_loss_window(
                SimTime::ZERO + SimDuration::from_secs(1),
                SimDuration::from_secs(10),
                0.05,
                0.3,
                0.5,
                Some(PacketKind::Media),
            )
        };
        let run = || {
            run_multipath(
                &cfg,
                MultipathScheme::Bonded,
                vec![Some(script()), Some(script())],
            )
        };
        assert_eq!(run().to_bytes(), run().to_bytes());
    }

    #[test]
    fn deterministic_replay_per_seed() {
        let cfg = base();
        let run = || {
            run_multipath(
                &cfg,
                MultipathScheme::Failover,
                vec![Some(FaultScript::new().blackout(
                    SimTime::ZERO + SimDuration::from_secs(3),
                    SimDuration::from_secs(4),
                ))],
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.media_sent, b.media_sent);
        assert_eq!(a.media_received, b.media_received);
        assert_eq!(a.probes_sent, b.probes_sent);
        assert_eq!(a.switches.len(), b.switches.len());
        for (x, y) in a.switches.iter().zip(&b.switches) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.cause, y.cause);
        }
        assert_eq!(a.frames.len(), b.frames.len());
    }

    #[test]
    fn one_leg_bonded_degenerates_to_single_path() {
        // With a single modem there is nothing to stripe, no cross-leg
        // parity, and no fallback duplication (nothing ever *went* down
        // to trigger it): the bonded scheduler must reduce to plain
        // single-path delivery on leg 0.
        let mut cfg = base();
        cfg.n_legs = 1;
        cfg.hold = SimDuration::from_secs(4);
        let bonded = run_multipath(&cfg, MultipathScheme::Bonded, Vec::new());
        let single = run_multipath(&cfg, MultipathScheme::SinglePath, Vec::new());
        assert_eq!(bonded.path_health.len(), 1);
        assert_eq!(bonded.fec_tx, 0, "cross-leg parity with one leg");
        assert_eq!(bonded.media_sent, single.media_sent);
        assert_eq!(bonded.media_received, single.media_received);
        assert_eq!(bonded.media_received_bytes, single.media_received_bytes);
        assert_eq!(bonded.frames.len(), single.frames.len());
    }

    #[test]
    fn three_leg_bonded_stripes_across_all_legs() {
        let mut cfg = base();
        cfg.n_legs = 3;
        cfg.hold = SimDuration::from_secs(4);
        let m = run_multipath(&cfg, MultipathScheme::Bonded, Vec::new());
        assert_eq!(m.path_health.len(), 3);
        let shares: Vec<f64> = (0..3).map(|li| m.leg_tx_share(li)).collect();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The goodput-proportional weights need not split evenly — the
        // slower operator's leg settles well below 1/3 — but every leg
        // must carry real traffic and none may monopolize the flow.
        for (li, s) in shares.iter().enumerate() {
            assert!(
                (0.02..=0.90).contains(s),
                "leg {li} carried {s:.2} of first transmissions"
            );
        }
        // The health plane only counts a report once an interval offers
        // enough packets to measure (LOSS_MIN_TX); a starved leg can
        // keepalive through every interval and finish at zero. The busy
        // legs must still produce real loss/goodput samples.
        assert!(m.path_health.iter().filter(|p| p.reports > 0).count() >= 2);
    }

    #[test]
    fn three_leg_bonded_survives_correlated_two_leg_burst() {
        // Two legs share a synchronized burst-loss window (same cell, say)
        // while the third stays clean: bonded delivery with RS parity must
        // beat the same fault hitting a two-leg rig, and repair groups
        // that lost more than one member (beyond any XOR code).
        let cfg3 = {
            let mut c = ExperimentConfig::builder()
                .cc(CcMode::paper_static(Environment::Rural))
                .seed(0xD0A1)
                .hold_secs(4)
                .fec_cap(0.25)
                .repair(true)
                .build();
            c.n_legs = 3;
            c
        };
        let burst = || {
            FaultScript::new().burst_loss_window(
                SimTime::ZERO + SimDuration::from_secs(1),
                SimDuration::from_secs(25),
                0.08,
                0.25,
                0.6,
                Some(PacketKind::Media),
            )
        };
        let m = run_multipath(
            &cfg3,
            MultipathScheme::Bonded,
            vec![Some(burst()), Some(burst())],
        );
        assert!(m.script_dropped > 0, "correlated burst never dropped");
        assert!(m.fec_tx > 0, "adaptive ratio never turned FEC on");
        assert!(m.fec_recovered > 0, "no packet recovered");
        assert!(
            m.fec_multi_recovered > 0,
            "no multi-loss group repaired ({} single repairs)",
            m.fec_recovered
        );
    }

    // ---- FEC retry triggers ------------------------------------------

    /// A bonded receiver driven by hand: `k` media members from sequence
    /// 500 and the `r` RS shards protecting them. Media and parity go
    /// straight into the reassembly state; each tick is one
    /// `recover_fec`.
    fn fec_rig(k: u16, r: usize) -> (MultipathFlight, Vec<RtpPacket>, Vec<RsParityPacket>) {
        let f = MultipathFlight::new(&base(), MultipathScheme::Bonded, Vec::new());
        let members: Vec<RtpPacket> = (0..k)
            .map(|i| RtpPacket {
                marker: i + 1 == k,
                payload_type: 96,
                sequence: 500 + i,
                timestamp: 9_000,
                ssrc: MEDIA_SSRC,
                transport_seq: None,
                payload: Bytes::from(vec![i as u8; 300 + usize::from(i)]),
                wire: None,
            })
            .collect();
        let mut g = RsGroup::new();
        for p in &members {
            assert!(g.push(p, r));
        }
        (f, members, g.build())
    }

    /// A media member reaching the reassembly window.
    fn arrive(f: &mut MultipathFlight, p: &RtpPacket) {
        f.seen.insert(identity(p));
        remember(&mut f.media_window, &mut f.rs_pending, p);
    }

    /// Run the recovery ticks `from..to` (ms), asserting none recovers.
    fn quiet_ticks(f: &mut MultipathFlight, from: u64, to: u64) {
        for ms in from..to {
            f.recover_fec(SimTime::from_millis(ms));
            assert_eq!(
                f.core.metrics.fec_recovered, 0,
                "recovered early, at {ms} ms"
            );
        }
    }

    #[test]
    fn fec_retries_when_a_straggler_member_arrives() {
        // Four members, one shard; member 3 is lost and member 2 lags
        // 30 ms behind the parity: two erasures against one shard until
        // the straggler lands, then one.
        let (mut f, members, shards) = fec_rig(4, 1);
        arrive(&mut f, &members[0]);
        arrive(&mut f, &members[1]);
        queue_parity(
            &mut f.rs_pending,
            SimTime::from_millis(1),
            shards[0].clone(),
        );
        quiet_ticks(&mut f, 1, 31);
        arrive(&mut f, &members[2]);
        f.recover_fec(SimTime::from_millis(31));
        assert_eq!(f.core.metrics.fec_recovered, 1);
        assert!(f.seen.contains(&identity(&members[3])));
        assert!(f.rs_pending.is_empty(), "a solved group retires");
    }

    #[test]
    fn fec_retries_when_a_second_shard_arrives() {
        // Members 2 and 3 are lost: the first shard alone cannot rebuild
        // two; the second, 20 ms later, completes the system.
        let (mut f, members, shards) = fec_rig(4, 2);
        arrive(&mut f, &members[0]);
        arrive(&mut f, &members[1]);
        queue_parity(
            &mut f.rs_pending,
            SimTime::from_millis(1),
            shards[0].clone(),
        );
        quiet_ticks(&mut f, 1, 21);
        queue_parity(
            &mut f.rs_pending,
            SimTime::from_millis(21),
            shards[1].clone(),
        );
        f.recover_fec(SimTime::from_millis(21));
        assert_eq!(f.core.metrics.fec_recovered, 2);
        assert_eq!(f.core.metrics.fec_multi_recovered, 2);
        assert!(f.rs_pending.is_empty(), "both shards retire with the group");
    }

    #[test]
    fn fec_retries_after_the_group_anchor_expires() {
        // Six members, three shards, of which two arrive: 1 ms (the
        // group's anchor) and 40 ms. Three members are lost, one more
        // than the two shards can rebuild. The anchor expires at its
        // 150 ms deadline; the later shard stays pending, and when two
        // stragglers land after that, it alone rebuilds the last hole.
        let (mut f, members, shards) = fec_rig(6, 3);
        for p in &members[..3] {
            arrive(&mut f, p);
        }
        queue_parity(
            &mut f.rs_pending,
            SimTime::from_millis(1),
            shards[0].clone(),
        );
        quiet_ticks(&mut f, 1, 40);
        queue_parity(
            &mut f.rs_pending,
            SimTime::from_millis(40),
            shards[1].clone(),
        );
        quiet_ticks(&mut f, 40, 170);
        assert_eq!(f.rs_pending.len(), 1, "the anchor expired at 151 ms");
        assert_eq!(f.rs_pending[0].shard.index, 1);
        arrive(&mut f, &members[3]);
        arrive(&mut f, &members[4]);
        f.recover_fec(SimTime::from_millis(170));
        assert_eq!(f.core.metrics.fec_recovered, 1);
        assert!(f.seen.contains(&identity(&members[5])));
    }
}
