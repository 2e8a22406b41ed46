//! Allocation discipline of Reed–Solomon recovery.
//!
//! The bonded receiver offers every pending parity group to
//! [`rs_recover`] against its reassembly window, and most offers fail:
//! the group is still short of survivors. A refusal must therefore cost
//! no heap traffic at all, and a recovery only what it hands back — the
//! result vector and each rebuilt packet's payload. Measured with the
//! shared counting allocator; one test function, so no other test thread
//! allocates inside the measured windows.

use std::collections::VecDeque;

use bytes::Bytes;
use rpav_rtp::fec::{rs_recover, RsGroup, RsParityPacket};
use rpav_rtp::packet::RtpPacket;

#[global_allocator]
static GLOBAL: rpav_sim::alloc::CountingAlloc = rpav_sim::alloc::CountingAlloc;

fn media(seq: u16, len: usize) -> RtpPacket {
    RtpPacket {
        marker: seq % 4 == 3,
        payload_type: 96,
        sequence: seq,
        timestamp: 90_000 + u32::from(seq / 4) * 3_000,
        ssrc: 0x5EED,
        transport_seq: None,
        payload: Bytes::from(vec![seq as u8; len]),
        wire: None,
    }
}

/// One group of `k` members from `first_seq`, protected by `r` shards.
fn group(first_seq: u16, k: u16, r: usize) -> (Vec<RtpPacket>, Vec<RsParityPacket>) {
    let members: Vec<RtpPacket> = (0..k)
        .map(|i| media(first_seq.wrapping_add(i), 200 + 37 * usize::from(i)))
        .collect();
    let mut g = RsGroup::new();
    for p in &members {
        assert!(g.push(p, r));
    }
    (members, g.build())
}

/// Allocation events made by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = rpav_sim::alloc::events();
    let out = f();
    (rpav_sim::alloc::events() - before, out)
}

#[test]
fn refusals_allocate_nothing_and_recoveries_only_their_output() {
    // A reassembly window like the bonded receiver's: the group's
    // survivors among unrelated traffic on both sides.
    let (members, shards) = group(65_530, 12, 2);
    let refs: Vec<&RsParityPacket> = shards.iter().collect();
    let window_with = |lost: &[usize]| -> VecDeque<RtpPacket> {
        let mut w: VecDeque<RtpPacket> = (0..300).map(|s| media(65_000 + s, 120)).collect();
        w.extend(
            members
                .iter()
                .enumerate()
                .filter(|(i, _)| !lost.contains(i))
                .map(|(_, p)| p.clone()),
        );
        w.extend((0..300).map(|s| media(20 + s, 120)));
        w
    };

    // Short of survivors: three erasures against two shards, one shard
    // against two erasures, and more erasures than any group has parity.
    for (lost, rows) in [
        (&[0usize, 5, 11][..], &refs[..]),
        (&[3, 4][..], &refs[..1]),
        (&[0, 1, 2, 3, 4, 5][..], &refs[..]),
    ] {
        let window = window_with(lost);
        let (allocs, out) = counted(|| rs_recover(rows, window.iter(), 0));
        assert!(out.is_none(), "lost {lost:?}: must refuse");
        assert_eq!(allocs, 0, "lost {lost:?}: refusal allocated {allocs} times");
    }

    // Nothing missing: the empty recovery is free too.
    let window = window_with(&[]);
    let (allocs, out) = counted(|| rs_recover(&refs, window.iter(), 0));
    assert_eq!(out.map(|v| v.len()), Some(0));
    assert_eq!(allocs, 0, "empty recovery allocated {allocs} times");

    // A recovery: the vector it returns, plus each packet's payload (its
    // buffer and the shared handle `Bytes` keeps it behind) — no scratch.
    for lost in [&[7usize][..], &[0, 11][..]] {
        let window = window_with(lost);
        let (allocs, out) = counted(|| rs_recover(&refs, window.iter(), 0));
        let out = out.expect("recoverable");
        assert_eq!(out.len(), lost.len());
        for (p, &i) in out.iter().zip(lost) {
            assert_eq!(p, &members[i]);
        }
        assert!(
            allocs <= 1 + 2 * out.len() as u64,
            "lost {lost:?}: recovery of {} packets allocated {allocs} times",
            out.len()
        );
    }
}
