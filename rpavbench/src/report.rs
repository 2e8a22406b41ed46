//! Result assembly: the metric table, the final JSON line, and the small
//! statistics the workloads share.

use std::fmt::Write as _;

use crate::trace::{per_campaign, Tracer, LAYERS, RESIDUALS};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted: cells, or campaigns for `rpavd-warm`.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// False when a check other than a per-operation one failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The result line: one JSON object, last on stdout.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Linear-interpolated quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Counts and diagnostics reported next to the layers.
pub const EXTRA_PER_LAYER: &[(&str, &str)] = &[
    ("core.sched.steps_per_cell", "count"),
    ("netem.queue_peak_bytes", "bytes"),
    ("netem.drops", "count"),
    ("count.steps", "count"),
    ("count.packets", "count"),
    ("count.handovers", "count"),
    ("count.fec_parity", "count"),
    ("count.fec_recovered", "count"),
    ("count.allocs", "count"),
    ("count.cache_bytes", "bytes"),
    ("count.unstable", "count"),
    ("trace.stale", "count"),
    ("trace.overhead_share", "share"),
    ("trace.wall_s", "s"),
    ("rpavd.resident_peak_mb", "MB"),
    ("failed_share", "share"),
];

/// Per-layer results of one traced run, before naming.
pub struct LayerReport {
    pub tracer: Tracer,
    /// Tick → ns factor for `tracer`.
    pub ns_per_tick: f64,
    /// Wall time the shares divide (ns); the residual layer takes what
    /// the measured layers leave.
    pub wall_ns: f64,
    /// The residual layer of this workload.
    pub residual: &'static str,
    /// Calls charged to the residual layer (driver steps, cells or
    /// campaigns).
    pub residual_calls: u64,
    /// Allocation events inside the wall not charged to a layer.
    pub residual_allocs: u64,
    /// Packets the traced wall carried (per-packet denominators).
    pub packets: u64,
    /// Campaigns the traced wall served (per-campaign denominators).
    pub campaigns: u64,
    /// Named counts and diagnostics (see [`EXTRA_PER_LAYER`]).
    pub extras: Vec<(&'static str, f64)>,
}

impl LayerReport {
    /// Fill `out` with every per-layer metric.
    pub fn emit(&self, out: &mut Outcome) {
        let mut ns: Vec<f64> = self
            .tracer
            .ticks
            .iter()
            .map(|&t| t as f64 * self.ns_per_tick)
            .collect();
        let mut calls = self.tracer.calls.clone();
        let mut allocs = self.tracer.allocs.clone();
        let ri = crate::trace::layer(self.residual);
        let measured: f64 = ns
            .iter()
            .enumerate()
            .filter(|(i, _)| !RESIDUALS.contains(&LAYERS[*i]))
            .map(|(_, v)| v)
            .sum();
        ns[ri] = self.wall_ns - measured;
        calls[ri] = self.residual_calls;
        allocs[ri] = self.residual_allocs;
        let packets = self.packets.max(1) as f64;
        let campaigns = self.campaigns.max(1) as f64;
        let wall = self.wall_ns.max(1.0);
        for (i, &l) in LAYERS.iter().enumerate() {
            out.push(&format!("{l}.share"), ns[i] / wall, "share");
            if per_campaign(l) {
                out.push(
                    &format!("{l}.ms_per_campaign"),
                    ns[i] / 1e6 / campaigns,
                    "ms/campaign",
                );
            } else {
                out.push(&format!("{l}.ns_per_packet"), ns[i] / packets, "ns/packet");
            }
            out.push(&format!("{l}.calls"), calls[i] as f64, "count");
            if l != "rpavd.other" {
                out.push(
                    &format!("{l}.allocs_per_packet"),
                    allocs[i] as f64 / packets,
                    "allocs/packet",
                );
            }
        }
        for (name, unit) in EXTRA_PER_LAYER {
            let v = self
                .extras
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            out.push(name, v, unit);
        }
    }
}

/// A fixed host-calibration kernel: a dependent random walk over a
/// 32 MiB table (cache- and memory-latency bound, like the simulator's
/// larger working sets) mixed with FNV-1a hashing, timed five times; the
/// median ns per step reads host speed next to the metrics.
pub fn host_calibration() -> f64 {
    const STEPS: u32 = 1 << 18;
    const LEN: usize = 1 << 23;
    let mut x = 0x9E37_79B9u32;
    let table: Vec<u32> = (0..LEN)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        })
        .collect();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        let mut i = 0usize;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..STEPS {
            let v = table[i];
            h = (h ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3);
            i = (v as usize ^ h as usize) & (LEN - 1);
        }
        std::hint::black_box(h);
        samples.push(t0.elapsed().as_nanos() as f64 / f64::from(STEPS));
    }
    median(&samples)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, on all its threads (user and
/// system). Unlike wall time it does not grow while the process waits:
/// for the disk, or for a core the host gave to someone else.
pub fn process_cpu() -> std::time::Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
