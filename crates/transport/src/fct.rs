//! Flow-completion-time collection and bucketing — the paper's Fig. 4
//! metric.

use qvisor_sim::{FlowId, Nanos, OnlineStats, TenantId};

/// One completed flow's record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// The flow.
    pub flow: FlowId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Flow size in bytes.
    pub size: u64,
    /// Start time.
    pub start: Nanos,
    /// Completion time (last byte acknowledged).
    pub end: Nanos,
}

impl FlowRecord {
    /// The flow completion time.
    pub fn fct(&self) -> Nanos {
        self.end - self.start
    }
}

/// Half-open size bucket `[lo, hi)` used to slice FCT statistics the way
/// the paper does: `(0, 100KB)` for Fig. 4a, `[1MB, ∞)` for Fig. 4b.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeBucket {
    /// Inclusive lower bound in bytes.
    pub lo: u64,
    /// Exclusive upper bound in bytes (`u64::MAX` = unbounded).
    pub hi: u64,
}

impl SizeBucket {
    /// The paper's small-flow bucket: `(0, 100 KB)`.
    pub const SMALL: SizeBucket = SizeBucket { lo: 1, hi: 100_000 };
    /// The paper's large-flow bucket: `[1 MB, ∞)`.
    pub const LARGE: SizeBucket = SizeBucket {
        lo: 1_000_000,
        hi: u64::MAX,
    };
    /// Everything.
    pub const ALL: SizeBucket = SizeBucket {
        lo: 0,
        hi: u64::MAX,
    };

    /// Does `size` fall in this bucket?
    pub fn contains(&self, size: u64) -> bool {
        size >= self.lo && size < self.hi
    }
}

/// Collects completed flows and answers the paper's statistics queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FctCollector {
    records: Vec<FlowRecord>,
}

impl FctCollector {
    /// Empty collector.
    pub fn new() -> FctCollector {
        FctCollector::default()
    }

    /// Record a completion.
    pub fn record(&mut self, rec: FlowRecord) {
        debug_assert!(rec.end >= rec.start);
        self.records.push(rec);
    }

    /// All records.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Sort records into the canonical `(end, start, flow)` order.
    ///
    /// Completion *recording* order is an artifact of event processing
    /// (which of two same-instant ACKs is dispatched first), and the float
    /// statistics stream over records in order, so they are only
    /// byte-stable on a canonical ordering. The engine canonicalizes before
    /// reporting.
    pub fn sort_canonical(&mut self) {
        self.records.sort_by_key(|r| (r.end, r.start, r.flow.0));
    }

    /// Completed-flow count for a tenant (all tenants when `None`).
    pub fn count(&self, tenant: Option<TenantId>) -> usize {
        self.iter_filtered(tenant, SizeBucket::ALL).count()
    }

    fn iter_filtered(
        &self,
        tenant: Option<TenantId>,
        bucket: SizeBucket,
    ) -> impl Iterator<Item = &FlowRecord> {
        self.records
            .iter()
            .filter(move |r| tenant.is_none_or(|t| r.tenant == t) && bucket.contains(r.size))
    }

    /// Mean FCT in milliseconds over a tenant/size slice (`None` if the
    /// slice is empty).
    pub fn mean_fct_ms(&self, tenant: Option<TenantId>, bucket: SizeBucket) -> Option<f64> {
        let mut stats = OnlineStats::new();
        for r in self.iter_filtered(tenant, bucket) {
            stats.record(r.fct().as_millis_f64());
        }
        (stats.count() > 0).then(|| stats.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(flow: u64, tenant: u16, size: u64, fct_us: u64) -> FlowRecord {
        FlowRecord {
            flow: FlowId(flow),
            tenant: TenantId(tenant),
            size,
            start: Nanos::from_micros(100),
            end: Nanos::from_micros(100 + fct_us),
        }
    }

    #[test]
    fn buckets_match_paper_definitions() {
        assert!(SizeBucket::SMALL.contains(50_000));
        assert!(!SizeBucket::SMALL.contains(100_000));
        assert!(!SizeBucket::SMALL.contains(0));
        assert!(SizeBucket::LARGE.contains(1_000_000));
        assert!(SizeBucket::LARGE.contains(u64::MAX - 1));
        assert!(!SizeBucket::LARGE.contains(999_999));
    }

    #[test]
    fn mean_fct_by_slice() {
        let mut c = FctCollector::new();
        c.record(rec(1, 1, 10_000, 1_000)); // small, T1, 1 ms
        c.record(rec(2, 1, 50_000, 3_000)); // small, T1, 3 ms
        c.record(rec(3, 1, 2_000_000, 10_000)); // large, T1
        c.record(rec(4, 2, 10_000, 9_000)); // small, T2
        assert_eq!(
            c.mean_fct_ms(Some(TenantId(1)), SizeBucket::SMALL),
            Some(2.0)
        );
        assert_eq!(
            c.mean_fct_ms(Some(TenantId(1)), SizeBucket::LARGE),
            Some(10.0)
        );
        assert_eq!(c.mean_fct_ms(Some(TenantId(2)), SizeBucket::LARGE), None);
        // All tenants, small flows: (1+3+9)/3.
        let all_small = c.mean_fct_ms(None, SizeBucket::SMALL).unwrap();
        assert!((all_small - 13.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.count(Some(TenantId(1))), 3);
        assert_eq!(c.count(None), 4);
    }
}
