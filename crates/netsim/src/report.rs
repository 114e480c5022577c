//! Simulation results.

use qvisor_sim::{Nanos, NodeId, TenantId};
use qvisor_transport::FctCollector;
use std::collections::BTreeMap;

/// Per-tenant traffic accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantTraffic {
    /// Payload packets injected by senders.
    pub sent_pkts: u64,
    /// Payload packets delivered to their destination host.
    pub delivered_pkts: u64,
    /// Payload bytes delivered (deduplicated for reliable flows).
    pub delivered_bytes: u64,
    /// Packets lost in queues (rejected or evicted).
    pub dropped_pkts: u64,
    /// Datagrams that met their deadline.
    pub deadline_met: u64,
    /// Datagrams that missed their deadline.
    pub deadline_missed: u64,
}

impl TenantTraffic {
    /// Fraction of deadline-carrying datagrams on time (`None` if none).
    pub fn deadline_hit_rate(&self) -> Option<f64> {
        let total = self.deadline_met + self.deadline_missed;
        (total > 0).then(|| self.deadline_met as f64 / total as f64)
    }
}

/// Everything a simulation run produces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Completed reliable flows.
    pub fct: FctCollector,
    /// Per-tenant counters.
    pub tenants: BTreeMap<TenantId, TenantTraffic>,
    /// Events processed.
    pub events: u64,
    /// Simulation clock at the end of the run.
    pub end_time: Nanos,
    /// Reliable flows that did not complete before the horizon.
    pub incomplete_flows: u64,
    /// Packets dropped by the pre-processor (unknown tenants under the
    /// `Drop` action).
    pub preproc_dropped: u64,
    /// Declared-range violations seen by the runtime monitor.
    pub monitor_violations: u64,
    /// Packets dropped by fault injection.
    pub random_losses: u64,
    /// Times the runtime adapter re-synthesized and hot-reloaded the
    /// pre-processor.
    pub reconfigurations: u64,
    /// Runtime re-syntheses the deployment gate refused (or that failed to
    /// synthesize): nothing was deployed, the previous policy stayed.
    pub reconfigurations_refused: u64,
    /// Packets dropped at each node (queue rejections/evictions plus
    /// fault-injection losses), for congestion hotspot analysis.
    pub node_drops: BTreeMap<NodeId, u64>,
    /// Per-tenant delivered bytes *within* each sampling window, when
    /// `SimConfig::sample_interval` is set: `(window end, tenant, bytes)`.
    pub samples: Vec<(Nanos, TenantId, u64)>,
}

impl SimReport {
    /// Counters for one tenant (zeros if never seen).
    pub fn tenant(&self, t: TenantId) -> TenantTraffic {
        self.tenants.get(&t).copied().unwrap_or_default()
    }

    /// The nodes with the most drops, busiest first (congestion hotspots).
    pub fn hotspots(&self, top: usize) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> = self.node_drops.iter().map(|(&n, &d)| (n, d)).collect();
        v.sort_by_key(|&(n, d)| (std::cmp::Reverse(d), n));
        v.truncate(top);
        v
    }

    /// A tenant's goodput time series in bits per second per window
    /// (empty without sampling).
    pub fn goodput_series_bps(&self, t: TenantId, interval: Nanos) -> Vec<(Nanos, f64)> {
        let secs = interval.as_secs_f64();
        self.samples
            .iter()
            .filter(|&&(_, tenant, _)| tenant == t)
            .map(|&(at, _, bytes)| (at, bytes as f64 * 8.0 / secs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_rate() {
        let t = TenantTraffic {
            deadline_met: 3,
            deadline_missed: 1,
            ..TenantTraffic::default()
        };
        assert_eq!(t.deadline_hit_rate(), Some(0.75));
        assert_eq!(TenantTraffic::default().deadline_hit_rate(), None);
    }
}
