//! Bench-side tracing: a cheap cycle clock, per-layer accumulators, and
//! the [`span!`] macro that wraps one call into a layer's public API.
//!
//! Spans live only in the benchmark's own code: the program is called
//! through its public functions and timed from outside. A span records
//! the clock ticks it covered and the allocation events
//! ([`rpav_sim::alloc::events`]) that happened inside it.

use std::time::Instant;

/// Every layer the traced runs attribute time to. The order is the
/// output order.
pub const LAYERS: &[&str] = &[
    // flight-single: the mirrored single-path pipeline.
    "lte.radio",
    "netem.path",
    "rtp.wire",
    "rtp.packetize",
    "rtp.feedback",
    "rtp.jitter",
    "rtp.repair",
    "cc.gcc",
    "cc.scream",
    "cc.static",
    "video.encoder",
    "video.playout",
    "core.metrics",
    "core.codec.write",
    "core.driver",
    // flight-bonded: replays of the bonded driver's reported work.
    "rtp.fec",
    "netem.legs",
    "lte.legs",
    "multipath.driver",
    // rpavd-warm: server-side replays of sampled campaigns.
    "core.json",
    "core.exec.expand",
    "core.journal",
    "core.codec.read",
    "core.summary.fold",
    "rpavd.other",
];

/// Index of `name` in [`LAYERS`].
pub fn layer(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .unwrap_or_else(|| panic!("unknown layer {name}"))
}

/// Layers whose time is a residual (wall minus the measured layers)
/// rather than a set of spans, and the traced workload each belongs to.
pub const RESIDUALS: &[&str] = &["core.driver", "multipath.driver", "rpavd.other"];

/// Layers whose per-operation time is reported per campaign, not per
/// packet.
pub fn per_campaign(name: &str) -> bool {
    matches!(
        name,
        "core.json"
            | "core.exec.expand"
            | "core.journal"
            | "core.codec.read"
            | "core.summary.fold"
            | "rpavd.other"
    )
}

/// Raw cycle counter: the TSC on x86-64 (a few ns per read), otherwise a
/// monotonic nanosecond clock. Converted to ns by a [`Calibration`].
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Tick → nanosecond conversion, measured over a traced run against the
/// monotonic clock.
pub struct Calibration {
    t0: Instant,
    k0: u64,
}

impl Calibration {
    pub fn start() -> Self {
        Calibration {
            t0: Instant::now(),
            k0: ticks(),
        }
    }

    /// Nanoseconds per tick over the interval since [`start`](Self::start).
    pub fn ns_per_tick(&self) -> f64 {
        let ns = self.t0.elapsed().as_nanos() as f64;
        let k = ticks().saturating_sub(self.k0).max(1) as f64;
        ns / k
    }
}

/// Per-layer accumulators of ticks, calls and allocation events.
#[derive(Clone)]
pub struct Tracer {
    pub ticks: Vec<u64>,
    pub calls: Vec<u64>,
    pub allocs: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            ticks: vec![0; LAYERS.len()],
            calls: vec![0; LAYERS.len()],
            allocs: vec![0; LAYERS.len()],
        }
    }
}

impl Tracer {
    #[inline(always)]
    pub fn add(&mut self, layer: usize, ticks: u64, allocs: u64) {
        self.ticks[layer] += ticks;
        self.calls[layer] += 1;
        self.allocs[layer] += allocs;
    }
}

/// Time one expression as a call into `$layer`, charging its ticks and
/// allocation events to `$tr`.
#[macro_export]
macro_rules! span {
    ($tr:expr, $layer:expr, $e:expr) => {{
        let a0 = rpav_sim::alloc::events();
        let t0 = $crate::trace::ticks();
        let r = $e;
        let dt = $crate::trace::ticks().wrapping_sub(t0);
        $tr.add($layer, dt, rpav_sim::alloc::events() - a0);
        r
    }};
}
