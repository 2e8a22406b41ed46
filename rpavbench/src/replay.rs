//! Replays of a bonded cell's reported work through public functions.
//!
//! The multipath driver keeps its layer objects private, so the traced
//! `flight-bonded` run times equivalent work from outside, sized by the
//! cell's own `RunMetrics`:
//!
//! * `rtp.fec` — every media packet sent (`media_sent`) pushed into one
//!   of `fec_tx` groups of one parity shard each, closed with
//!   `build_into`; then one `rs_recover` per group against a full
//!   1024-packet receive window, the driver's survivor set:
//!   `fec_recovered` of them rebuild a missing member, the rest find the
//!   group complete. The counts leave the replay approximate in three
//!   ways: the driver pushes only the packets sent while FEC was on (the
//!   replay pushes all of them, overstating encode work in calm
//!   periods); it closes groups of up to four shards during bursts (the
//!   replay's groups carry one); and it retries a group that found too
//!   few survivors on every later tick (unreported, so not replayed; that
//!   cost stays in `multipath.driver`).
//! * `netem.legs` — one `Path` enqueue + drain per leg-packet (the
//!   per-leg `tx_packets` of `path_health`).
//! * `lte.legs` — one `RadioModel` per leg, built as the driver builds
//!   it, ticked along the flight plan at the radio cadence.

use bytes::Bytes;
use rpav_core::metrics::RunMetrics;
use rpav_core::paths;
use rpav_core::scenario::{ExperimentConfig, MAX_LEGS};
use rpav_lte::{NetworkProfile, RadioModel};
use rpav_netem::{Packet, PacketKind};
use rpav_rtp::fec::{rs_recover, RsGroup, RsParityPacket, MAX_FEC_GROUP};
use rpav_rtp::packet::RtpPacket;
use rpav_sim::{RngSet, SimDuration, SimTime};
use rpav_uav::{profiles as uav_profiles, Position};

use crate::span;
use crate::trace::{layer, Tracer};

/// The bonded driver's receive window (`MEDIA_WINDOW_CAP`).
const MEDIA_WINDOW: usize = 1024;
/// Post-flight drain, as in the drivers.
const DRAIN: SimDuration = SimDuration::from_secs(3);

fn media_packet(seq: u16, payload_len: usize) -> RtpPacket {
    RtpPacket {
        marker: false,
        payload_type: 96,
        sequence: seq,
        timestamp: u32::from(seq) * 90,
        ssrc: 0x2,
        transport_seq: None,
        payload: Bytes::from(vec![seq as u8; payload_len]),
        wire: None,
    }
}

/// Replay `m`'s FEC, leg-path and leg-radio work, charging it to
/// `rtp.fec`, `netem.legs` and `lte.legs`.
pub fn bonded(config: &ExperimentConfig, m: &RunMetrics, tr: &mut Tracer) {
    let payload = (m.media_received_bytes / m.media_received.max(1)).max(1) as usize;
    fec(m, payload, tr);
    legs_path(config, m, payload, tr);
    legs_radio(config, m, tr);
}

fn fec(m: &RunMetrics, payload: usize, tr: &mut Tracer) {
    let fec = layer("rtp.fec");
    if m.fec_tx == 0 {
        return;
    }
    // Every media packet folded into one of `fec_tx` one-shard groups.
    let members = ((m.media_sent as f64 / m.fec_tx as f64).round() as usize)
        .clamp(2, usize::from(MAX_FEC_GROUP));
    let window: Vec<RtpPacket> = (0..MEDIA_WINDOW as u16)
        .map(|s| media_packet(s, payload))
        .collect();
    let mut group = RsGroup::new();
    let mut parity: Vec<RsParityPacket> = Vec::new();
    for g in 0..m.fec_tx {
        let base = (g as usize * members) % (MEDIA_WINDOW - members);
        for p in &window[base..base + members] {
            span!(tr, fec, group.push(p, 1));
        }
        parity.clear();
        span!(tr, fec, group.build_into(&mut parity));
    }
    // One recovery attempt per parity group: `fec_recovered` of them
    // miss their first member and rebuild it (two walks of the window
    // and a solve), the rest find every member and retire (one walk).
    for p in &window[..members] {
        group.push(p, 1);
    }
    parity.clear();
    group.build_into(&mut parity);
    let shard = &parity[0];
    let missing_first = &window[1..];
    for g in 0..m.fec_tx {
        let rec = if g < m.fec_recovered {
            span!(tr, fec, rs_recover(&[shard], missing_first.iter(), 0x2))
        } else {
            span!(tr, fec, rs_recover(&[shard], window.iter(), 0x2))
        };
        debug_assert_eq!(rec.map(|v| v.len()), Some(usize::from(g < m.fec_recovered)));
    }
}

fn legs_path(config: &ExperimentConfig, m: &RunMetrics, payload: usize, tr: &mut Tracer) {
    let netem = layer("netem.legs");
    let leg_packets: u64 = m.path_health.iter().map(|h| h.tx_packets).sum();
    let leg_packets = if leg_packets == 0 {
        m.media_sent + m.rtx_sent + m.fec_tx
    } else {
        leg_packets
    };
    let rngs = RngSet::new(config.seed);
    let mut path = paths::uplink_path(&rngs, "bench.leg", config.run_index);
    span!(tr, netem, path.set_rate_bps(SimTime::ZERO, 1e9));
    let wire = Bytes::from(vec![0u8; payload + 12]);
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    // Ten packets per 1 ms driver tick, drained every tick.
    for i in 0..leg_packets {
        span!(
            tr,
            netem,
            path.enqueue(now, Packet::new(i, wire.clone(), PacketKind::Media, now))
        );
        if i % 10 == 9 {
            now += SimDuration::from_millis(1);
            span!(tr, netem, path.drain_due(now, &mut out));
            out.clear();
        }
    }
}

fn legs_radio(config: &ExperimentConfig, m: &RunMetrics, tr: &mut Tracer) {
    let lte = layer("lte.legs");
    let rngs = RngSet::new(config.seed);
    let plan = uav_profiles::paper_flight(Position::ground(0.0, 0.0), config.hold);
    let end = SimTime::ZERO + m.duration + DRAIN;
    let n = config.n_legs.clamp(1, MAX_LEGS);
    for li in 0..n {
        let op = if li % 2 == 0 {
            config.operator
        } else {
            config.secondary_operator()
        };
        let profile = NetworkProfile::new(config.environment, op);
        let mut radio = span!(
            tr,
            lte,
            RadioModel::new(&profile, &rngs, config.run_index ^ ((li as u64) << 32))
        );
        let mut t = SimTime::ZERO;
        while t < end {
            let pos = plan.position_at(t);
            span!(tr, lte, radio.step(t, &pos));
            t += span!(tr, lte, radio.tick());
        }
    }
}
