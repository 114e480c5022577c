//! Zero-sized stand-ins compiled when the `enabled` feature is off.
//!
//! Mirrors the API of the live module exactly so call sites never need
//! `cfg` guards; every recording method is an empty inlined body the
//! optimiser removes.

use qvisor_sim::json::Value;
use qvisor_sim::Nanos;

/// No-op counter (telemetry compiled out).
#[derive(Clone, Copy, Default, Debug)]
pub struct Counter;

impl Counter {
    /// No-op.
    #[inline(always)]
    pub fn inc(&self) {}

    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// Always 0.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// No-op gauge (telemetry compiled out).
#[derive(Clone, Copy, Default, Debug)]
pub struct Gauge;

impl Gauge {
    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: i64) {}

    /// No-op.
    #[inline(always)]
    pub fn add(&self, _delta: i64) {}

    /// Always 0.
    #[inline(always)]
    pub fn get(&self) -> i64 {
        0
    }
}

/// No-op histogram (telemetry compiled out).
#[derive(Clone, Copy, Default, Debug)]
pub struct Histogram;

impl Histogram {
    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: u64) {}

    /// Always 0.
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }

    /// Always `None`.
    #[inline(always)]
    pub fn quantile(&self, _p: f64) -> Option<u64> {
        None
    }
}

/// No-op telemetry entry point (the `enabled` feature is off).
#[derive(Clone, Copy, Default)]
pub struct Telemetry;

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Telemetry(compiled out)")
    }
}

impl Telemetry {
    /// Still a no-op handle; the feature decides, not the constructor.
    pub fn enabled() -> Telemetry {
        Telemetry
    }

    /// A no-op handle.
    pub fn with_journal_capacity(_capacity: usize) -> Telemetry {
        Telemetry
    }

    /// A no-op handle.
    pub fn disabled() -> Telemetry {
        Telemetry
    }

    /// Always false.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        false
    }

    /// A no-op counter.
    #[inline(always)]
    pub fn counter(&self, _name: &str, _labels: &[(&str, &str)]) -> Counter {
        Counter
    }

    /// A no-op gauge.
    #[inline(always)]
    pub fn gauge(&self, _name: &str, _labels: &[(&str, &str)]) -> Gauge {
        Gauge
    }

    /// A no-op histogram.
    #[inline(always)]
    pub fn histogram(&self, _name: &str, _labels: &[(&str, &str)]) -> Histogram {
        Histogram
    }

    /// A no-op profiler.
    #[inline(always)]
    pub fn profiler(&self, _name: &str) -> crate::profile::Profiler {
        crate::profile::Profiler
    }

    /// No-op.
    #[inline(always)]
    pub fn event(&self, _t: Nanos, _kind: &str, _fields: &[(&str, Value)]) {}

    /// Always empty.
    pub fn export_jsonl(&self) -> String {
        String::new()
    }

    /// Notes that telemetry is compiled out.
    pub fn summary(&self) -> String {
        "telemetry compiled out".to_string()
    }
}
