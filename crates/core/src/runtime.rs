//! Runtime monitoring and adaptation (§2 Idea 2, §5).
//!
//! The control plane watches the ranks tenants actually emit:
//!
//! * **violations** — ranks outside a tenant's declared range are the
//!   adversarial-workload signal the paper calls out; the monitor clamps,
//!   drops, or just alarms, per configuration;
//! * **activity** — tenants that stop transmitting free their bands; the
//!   adapter re-synthesizes the joint policy over the active set (the
//!   paper's t1 moment in Fig. 2 when T1/T2 go idle and T3 starts);
//! * **drift** — when a tenant's observed rank distribution uses only a
//!   sliver of its declared range, the adapter tightens the range so
//!   normalization keeps its resolution.

use crate::error::QvisorError;
use crate::policy::{Policy, PrefChain, ShareGroup};
use crate::spec::{SynthConfig, TenantSpec};
use crate::synth::synthesize;
use crate::verify::{admit, Admitted, Refused, SpecPaths};
use qvisor_ranking::RankRange;
use qvisor_sim::{Log2Histogram, Nanos, Packet, TenantId};
use qvisor_telemetry::{Counter, Gauge, Histogram, Profiler, Telemetry};

/// What to do with a packet whose rank violates the declared range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationAction {
    /// Clamp the rank into the declared range and forward.
    Clamp,
    /// Forward unchanged, but count the violation.
    AlarmOnly,
    /// Drop the packet.
    Drop,
}

/// Monitor tuning.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Response to declared-range violations.
    pub violation_action: ViolationAction,
    /// A tenant is idle when unseen for this long.
    pub idle_after: Nanos,
    /// Tighten a tenant's range when its observed high quantile is below
    /// `declared.max / drift_ratio` (e.g. 4.0 = using under a quarter).
    pub drift_ratio: f64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            violation_action: ViolationAction::Clamp,
            idle_after: Nanos::from_millis(10),
            drift_ratio: 4.0,
        }
    }
}

/// Verdict for one observed packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observation {
    /// Rank within declared bounds.
    Ok,
    /// Rank out of bounds; handled per [`ViolationAction`] (`Clamp` has
    /// already rewritten the packet's rank).
    Violation(ViolationAction),
}

#[derive(Clone, Debug)]
struct TenantMonitor {
    declared: RankRange,
    hist: Log2Histogram,
    last_seen: Option<Nanos>,
    packets: u64,
    violations: u64,
}

/// Online per-tenant rank statistics and violation policing.
#[derive(Clone, Debug)]
pub struct RuntimeMonitor {
    config: MonitorConfig,
    /// Dense by tenant id.
    tenants: Vec<Option<TenantMonitor>>,
}

impl RuntimeMonitor {
    /// A monitor for the given specs.
    pub fn new(specs: &[TenantSpec], config: MonitorConfig) -> RuntimeMonitor {
        let max_id = specs.iter().map(|s| s.id.index()).max().map(|m| m + 1);
        let mut tenants = vec![None; max_id.unwrap_or(0)];
        for s in specs {
            tenants[s.id.index()] = Some(TenantMonitor {
                declared: s.range,
                hist: Log2Histogram::new(),
                last_seen: None,
                packets: 0,
                violations: 0,
            });
        }
        RuntimeMonitor { config, tenants }
    }

    /// Observe (and possibly police) one payload packet *before* the
    /// pre-processor. Unknown tenants are ignored (the pre-processor has
    /// its own unknown-tenant action).
    pub fn observe(&mut self, p: &mut Packet, now: Nanos) -> Observation {
        if !p.is_payload() {
            return Observation::Ok;
        }
        let Some(Some(tm)) = self.tenants.get_mut(p.tenant.index()) else {
            return Observation::Ok;
        };
        tm.packets += 1;
        tm.last_seen = Some(now);
        tm.hist.record(p.rank);
        if tm.declared.contains(p.rank) {
            return Observation::Ok;
        }
        tm.violations += 1;
        if self.config.violation_action == ViolationAction::Clamp {
            p.rank = tm.declared.clamp(p.rank);
        }
        Observation::Violation(self.config.violation_action)
    }

    /// Tenants seen within the idle window ending at `now`.
    fn active_tenants(&self, now: Nanos) -> Vec<TenantId> {
        self.tenants
            .iter()
            .enumerate()
            .filter_map(|(i, tm)| {
                let tm = tm.as_ref()?;
                let seen = tm.last_seen?;
                (now.saturating_sub(seen) <= self.config.idle_after).then_some(TenantId(i as u16))
            })
            .collect()
    }

    /// Violations counted for `tenant`.
    pub fn violations(&self, tenant: TenantId) -> u64 {
        self.tenants
            .get(tenant.index())
            .and_then(|t| t.as_ref())
            .map(|t| t.violations)
            .unwrap_or(0)
    }

    /// Packets observed for `tenant`.
    pub fn packets(&self, tenant: TenantId) -> u64 {
        self.tenants
            .get(tenant.index())
            .and_then(|t| t.as_ref())
            .map(|t| t.packets)
            .unwrap_or(0)
    }

    /// Observed upper bound on `tenant`'s ranks at quantile `p`.
    fn observed_bound(&self, tenant: TenantId, p: f64) -> Option<u64> {
        self.tenants
            .get(tenant.index())
            .and_then(|t| t.as_ref())
            .and_then(|t| t.hist.quantile(p))
    }
}

/// A proposed re-synthesis, produced by [`RuntimeAdapter::propose`].
#[derive(Clone, Debug, PartialEq)]
pub struct Adaptation {
    /// Tenants still active (the new policy covers exactly these).
    pub active: Vec<TenantId>,
    /// Range tightenings to apply: (tenant, new range).
    pub tightened: Vec<(TenantId, RankRange)>,
}

/// Event-driven controller that re-synthesizes the joint policy as tenants
/// come, go, or drift (§2's SDN-controller analogy).
#[derive(Clone, Debug)]
pub struct RuntimeAdapter {
    specs: Vec<TenantSpec>,
    policy: Policy,
    synth_config: SynthConfig,
    monitor_config: MonitorConfig,
    /// Active set used by the last synthesis.
    current_active: Vec<TenantId>,
    /// Transform-table version: 1 for the initial deployment, bumped on
    /// every admitted re-synthesis.
    version: u64,
    /// The deployment gate's strictness: warnings refuse a re-synthesis.
    deny_warnings: bool,
    /// Wall-clock re-synthesis latency (telemetry; wall time never feeds
    /// back into simulated behaviour).
    synth_ns: Histogram,
    recompiles: Counter,
    version_gauge: Gauge,
    resynth_prof: Profiler,
}

impl RuntimeAdapter {
    /// An adapter over the full tenant population and operator policy.
    pub fn new(
        specs: Vec<TenantSpec>,
        policy: Policy,
        synth_config: SynthConfig,
        monitor_config: MonitorConfig,
    ) -> RuntimeAdapter {
        let current_active = specs.iter().map(|s| s.id).collect();
        RuntimeAdapter {
            specs,
            policy,
            synth_config,
            monitor_config,
            current_active,
            version: 1,
            deny_warnings: false,
            synth_ns: Histogram::default(),
            recompiles: Counter::default(),
            version_gauge: Gauge::default(),
            resynth_prof: Profiler::default(),
        }
    }

    /// Report recompilation latency (`runtime_synth_ns`), recompile count
    /// (`runtime_recompiles`), and the deployed transform-table version
    /// (`runtime_transform_version`) through `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> RuntimeAdapter {
        self.synth_ns = telemetry.histogram("runtime_synth_ns", &[]);
        self.recompiles = telemetry.counter("runtime_recompiles", &[]);
        self.version_gauge = telemetry.gauge("runtime_transform_version", &[]);
        self.version_gauge.set(self.version as i64);
        self.resynth_prof = telemetry.profiler("resynthesize");
        self
    }

    /// Judge every re-synthesis with warnings refused (errors always
    /// refuse). Set it to the strictness of the deployment the adapter
    /// manages: the simulator passes its initial deployment's
    /// ([`Admitted::deny_warnings`]), the daemon its `--deny-warnings`.
    pub fn with_deny_warnings(mut self, deny: bool) -> RuntimeAdapter {
        self.deny_warnings = deny;
        self
    }

    /// Version of the currently deployed transform table (1 = initial
    /// synthesis; each successful [`RuntimeAdapter::apply`] bumps it).
    pub fn transform_version(&self) -> u64 {
        self.version
    }

    /// The tenant specs as the adapter currently sees them (drift
    /// tightenings and [`RuntimeAdapter::update_spec`] replacements
    /// applied), in registration order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// The operator policy the adapter projects onto active tenants.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replace the registered spec for `spec.id` (a tenant re-declaring its
    /// range, algorithm, or quantization — the control-plane daemon's
    /// submission path). Returns `false` when no spec with that id is
    /// registered; the population itself is fixed at construction.
    ///
    /// The replacement takes effect at the next [`RuntimeAdapter::apply`];
    /// the currently deployed joint policy is not touched.
    pub fn update_spec(&mut self, spec: TenantSpec) -> bool {
        match self.specs.iter_mut().find(|s| s.id == spec.id) {
            Some(slot) => {
                *slot = spec;
                true
            }
            None => false,
        }
    }

    /// Compare monitor state against the current deployment and propose an
    /// adaptation, or `None` when nothing changed.
    pub fn propose(&self, monitor: &RuntimeMonitor, now: Nanos) -> Option<Adaptation> {
        let mut active = monitor.active_tenants(now);
        active.sort();
        let mut current = self.current_active.clone();
        current.sort();

        let mut tightened = Vec::new();
        for spec in &self.specs {
            if !active.contains(&spec.id) {
                continue;
            }
            if let Some(bound) = monitor.observed_bound(spec.id, 0.999) {
                let bound = bound.max(spec.range.min);
                if (bound as f64) * self.monitor_config.drift_ratio < spec.range.max as f64 {
                    tightened.push((spec.id, RankRange::new(spec.range.min, bound)));
                }
            }
        }

        if active == current && tightened.is_empty() {
            return None;
        }
        Some(Adaptation { active, tightened })
    }

    /// Apply an adaptation: re-synthesize over the active tenants with any
    /// tightened ranges, and put the result through the deployment gate
    /// ([`admit`], spans rooted at [`SpecPaths::config`] over the active
    /// specs) at this adapter's strictness — the strictness of the
    /// deployment the result replaces.
    ///
    /// * `Ok(Some(deployment))` — the gate admitted the new joint policy
    ///   and the transform version bumped; deploy it.
    /// * `Ok(None)` — no scheduled tenant remains (every active tenant left
    ///   the policy, or the active set is empty). This is still a new,
    ///   empty deployment: the version bumps so downstream snapshots stay
    ///   distinguishable from the previous non-empty one.
    /// * `Err(_)` — synthesis failed or the gate refused its result. Nothing
    ///   is committed: the version, the active set and the specs stay as
    ///   they were, so the next [`RuntimeAdapter::propose`] proposes the
    ///   same change again.
    ///
    /// Every call that reaches synthesis (or an empty deployment) counts
    /// one `runtime_recompiles`, refused or not.
    ///
    /// Tightened ranges persist into the adapter's view of the specs so the
    /// same drift is not re-proposed every tick. Tightening is a one-way
    /// ratchet: a tenant that later exceeds its tightened range shows up as
    /// monitor violations (clamped/dropped per policy) — the signal to
    /// re-declare, not something the adapter widens silently.
    pub fn apply(&mut self, adaptation: &Adaptation) -> Result<Option<Admitted>, AdaptError> {
        let mut specs = self.specs.clone();
        for (tenant, range) in &adaptation.tightened {
            if let Some(s) = specs.iter_mut().find(|s| s.id == *tenant) {
                s.range = *range;
            }
        }
        let active_specs: Vec<TenantSpec> = specs
            .iter()
            .filter(|s| adaptation.active.contains(&s.id))
            .cloned()
            .collect();
        let keep: Vec<&str> = active_specs.iter().map(|s| s.name.as_str()).collect();
        self.recompiles.inc();
        // Without a policy left this is an empty deployment: the departure
        // still reconfigures the data plane (all bands reclaimed), so it
        // gets its own version.
        let deployment = match retain_tenants(&self.policy, &keep) {
            None => None,
            Some(policy) => {
                // determinism: allowed (self-profiler measures host synthesis
                // cost; stripped from deterministic exports)
                let started = std::time::Instant::now(); // determinism: allowed
                let result = synthesize(&active_specs, &policy, self.synth_config);
                let elapsed = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.synth_ns.record(elapsed);
                self.resynth_prof.record_ns(elapsed);
                let joint = result.map_err(AdaptError::Synthesis)?;
                Some(
                    admit(joint, &SpecPaths::config(), self.deny_warnings)
                        .map_err(AdaptError::Refused)?,
                )
            }
        };
        self.specs = specs;
        self.current_active = adaptation.active.clone();
        self.version += 1;
        self.version_gauge.set(self.version as i64);
        Ok(deployment)
    }
}

/// Why [`RuntimeAdapter::apply`] deployed nothing.
#[derive(Clone, Debug)]
pub enum AdaptError {
    /// The re-synthesis failed; there was no policy to judge.
    Synthesis(QvisorError),
    /// The deployment gate refused the re-synthesized policy.
    Refused(Refused),
}

/// Project a policy onto a subset of tenants, dropping empty groups,
/// chains, and levels. `None` when nothing remains.
pub fn retain_tenants(policy: &Policy, keep: &[&str]) -> Option<Policy> {
    let levels: Vec<PrefChain> = policy
        .levels
        .iter()
        .filter_map(|level| {
            let groups: Vec<ShareGroup> = level
                .groups
                .iter()
                .filter_map(|g| {
                    let members: Vec<_> = g
                        .members
                        .iter()
                        .filter(|m| keep.contains(&m.name.as_str()))
                        .cloned()
                        .collect();
                    (!members.is_empty()).then_some(ShareGroup { members })
                })
                .collect();
            (!groups.is_empty()).then_some(PrefChain { groups })
        })
        .collect();
    (!levels.is_empty()).then_some(Policy { levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId};

    fn specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1000)),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 500)),
            TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 50)),
        ]
    }

    fn pkt(tenant: u16, rank: u64) -> Packet {
        Packet::data(
            FlowId(1),
            TenantId(tenant),
            0,
            1500,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        )
    }

    #[test]
    fn in_range_ranks_pass() {
        let mut m = RuntimeMonitor::new(&specs(), MonitorConfig::default());
        let mut p = pkt(1, 500);
        assert_eq!(m.observe(&mut p, Nanos::ZERO), Observation::Ok);
        assert_eq!(m.packets(TenantId(1)), 1);
        assert_eq!(m.violations(TenantId(1)), 0);
    }

    #[test]
    fn violations_are_clamped() {
        let mut m = RuntimeMonitor::new(&specs(), MonitorConfig::default());
        let mut p = pkt(2, 9999); // declared max 500
        let obs = m.observe(&mut p, Nanos::ZERO);
        assert_eq!(obs, Observation::Violation(ViolationAction::Clamp));
        assert_eq!(p.rank, 500, "rank clamped into declared range");
        assert_eq!(m.violations(TenantId(2)), 1);
    }

    #[test]
    fn violation_drop_action() {
        let cfg = MonitorConfig {
            violation_action: ViolationAction::Drop,
            ..MonitorConfig::default()
        };
        let mut m = RuntimeMonitor::new(&specs(), cfg);
        let mut p = pkt(2, 9999);
        assert_eq!(
            m.observe(&mut p, Nanos::ZERO),
            Observation::Violation(ViolationAction::Drop)
        );
        assert_eq!(p.rank, 9999, "drop action leaves the packet unmodified");
    }

    #[test]
    fn adversarial_low_ranks_also_flagged() {
        let specs = vec![TenantSpec::new(
            TenantId(1),
            "T1",
            "x",
            RankRange::new(100, 200),
        )];
        let mut m = RuntimeMonitor::new(&specs, MonitorConfig::default());
        let mut p = pkt(1, 0); // grabbing priority below its floor
        assert!(matches!(
            m.observe(&mut p, Nanos::ZERO),
            Observation::Violation(_)
        ));
        assert_eq!(p.rank, 100);
    }

    #[test]
    fn activity_tracking() {
        let mut m = RuntimeMonitor::new(&specs(), MonitorConfig::default());
        m.observe(&mut pkt(1, 1), Nanos::from_millis(1));
        m.observe(&mut pkt(2, 1), Nanos::from_millis(20));
        // At t=25ms with idle_after=10ms, only T2 is active.
        let active = m.active_tenants(Nanos::from_millis(25));
        assert_eq!(active, vec![TenantId(2)]);
    }

    #[test]
    fn adapter_proposes_on_tenant_departure() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let adapter = RuntimeAdapter::new(
            specs(),
            policy,
            SynthConfig::default(),
            MonitorConfig::default(),
        );
        let mut m = RuntimeMonitor::new(&specs(), MonitorConfig::default());
        // Only T3 transmits recently.
        m.observe(&mut pkt(3, 10), Nanos::from_millis(100));
        let proposal = adapter.propose(&m, Nanos::from_millis(101)).unwrap();
        assert_eq!(proposal.active, vec![TenantId(3)]);
    }

    #[test]
    fn adapter_apply_resynthesizes_for_active_set() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let mut adapter = RuntimeAdapter::new(
            specs(),
            policy,
            SynthConfig::default(),
            MonitorConfig::default(),
        );
        let adaptation = Adaptation {
            active: vec![TenantId(3)],
            tightened: vec![],
        };
        let deployment = adapter.apply(&adaptation).unwrap().unwrap();
        let joint = deployment.joint();
        // T3 alone now owns the whole (single-level) rank space from 0.
        assert!(joint.chain(TenantId(3)).is_some());
        assert!(joint.chain(TenantId(1)).is_none());
        assert_eq!(joint.layout.len(), 1);
        assert_eq!(joint.layout[0].base, 0);
    }

    #[test]
    fn adapter_tightens_drifted_ranges() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let adapter = RuntimeAdapter::new(
            specs(),
            policy,
            SynthConfig::default(),
            MonitorConfig::default(),
        );
        let mut m = RuntimeMonitor::new(&specs(), MonitorConfig::default());
        // T1 declared [0,1000] but only ever uses ranks <= 15.
        for r in [3u64, 7, 9, 15, 2, 5] {
            m.observe(&mut pkt(1, r), Nanos::from_millis(5));
        }
        m.observe(&mut pkt(2, 499), Nanos::from_millis(5));
        m.observe(&mut pkt(3, 49), Nanos::from_millis(5));
        let proposal = adapter.propose(&m, Nanos::from_millis(6)).unwrap();
        let t1 = proposal
            .tightened
            .iter()
            .find(|(t, _)| *t == TenantId(1))
            .expect("T1 drifted");
        assert!(t1.1.max < 1000 / 4, "range tightened: {}", t1.1);
    }

    #[test]
    fn no_change_no_proposal() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let adapter = RuntimeAdapter::new(
            specs(),
            policy,
            SynthConfig::default(),
            MonitorConfig::default(),
        );
        let mut m = RuntimeMonitor::new(&specs(), MonitorConfig::default());
        // Everyone active, everyone spanning their declared range.
        for (t, max) in [(1u16, 1000u64), (2, 500), (3, 50)] {
            m.observe(&mut pkt(t, max / 2), Nanos::from_millis(5));
            m.observe(&mut pkt(t, max), Nanos::from_millis(5));
        }
        assert!(adapter.propose(&m, Nanos::from_millis(6)).is_none());
    }

    #[test]
    fn apply_reports_through_telemetry() {
        let t = Telemetry::enabled();
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let mut adapter = RuntimeAdapter::new(
            specs(),
            policy,
            SynthConfig::default(),
            MonitorConfig::default(),
        )
        .with_telemetry(&t);
        assert_eq!(adapter.transform_version(), 1);
        let adaptation = Adaptation {
            active: vec![TenantId(3)],
            tightened: vec![],
        };
        adapter.apply(&adaptation).unwrap().unwrap();
        assert_eq!(adapter.transform_version(), 2);
        assert_eq!(t.counter("runtime_recompiles", &[]).get(), 1);
        assert_eq!(t.gauge("runtime_transform_version", &[]).get(), 2);
        assert_eq!(t.histogram("runtime_synth_ns", &[]).count(), 1);
    }

    #[test]
    fn a_refused_adaptation_commits_nothing() {
        // T1 only ever sends rank 0: the drift tightening cuts its range to
        // the point [0, 0], which cannot interleave with T2 in their share
        // group — a QV-SHARE-BAND warning.
        let specs = vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1000)),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 1000)),
        ];
        let adapter = |deny| {
            let policy = Policy::parse("T1:5 + T2").unwrap();
            RuntimeAdapter::new(
                specs.clone(),
                policy,
                SynthConfig::default(),
                MonitorConfig::default(),
            )
            .with_deny_warnings(deny)
        };
        let mut m = RuntimeMonitor::new(&specs, MonitorConfig::default());
        for _ in 0..4 {
            m.observe(&mut pkt(1, 0), Nanos::from_millis(5));
        }
        m.observe(&mut pkt(2, 500), Nanos::from_millis(5));
        m.observe(&mut pkt(2, 1000), Nanos::from_millis(5));
        let now = Nanos::from_millis(6);

        let t = Telemetry::enabled();
        let mut strict = adapter(true).with_telemetry(&t);
        let proposal = strict.propose(&m, now).expect("T1 drifted");
        assert_eq!(
            proposal.tightened,
            vec![(TenantId(1), RankRange::new(0, 0))]
        );
        let Err(AdaptError::Refused(refused)) = strict.apply(&proposal) else {
            panic!("a share group that cannot interleave was deployed");
        };
        assert_eq!(refused.codes(), ["QV-SHARE-BAND"]);
        assert_eq!(strict.transform_version(), 1);
        assert_eq!(strict.specs(), &specs[..]);
        assert_eq!(strict.propose(&m, now), Some(proposal.clone()));
        assert_eq!(t.counter("runtime_recompiles", &[]).get(), 1);
        assert_eq!(t.gauge("runtime_transform_version", &[]).get(), 1);

        // The default gate refuses only errors: the same tightening deploys.
        let mut lax = adapter(false);
        let deployment = lax.apply(&proposal).unwrap().unwrap();
        assert!(!deployment.report().guarantees_hold());
        assert_eq!(lax.transform_version(), 2);
        assert_eq!(lax.specs()[0].range, RankRange::new(0, 0));
        assert_eq!(lax.propose(&m, now), None);
    }

    #[test]
    fn a_failed_synthesis_commits_nothing() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let config = SynthConfig {
            pref_bias_divisor: 0,
            ..SynthConfig::default()
        };
        let mut adapter = RuntimeAdapter::new(specs(), policy, config, MonitorConfig::default());
        let adaptation = Adaptation {
            active: vec![TenantId(3)],
            tightened: vec![(TenantId(3), RankRange::new(0, 5))],
        };
        let err = adapter.apply(&adaptation).expect_err("synthesis fails");
        assert!(matches!(err, AdaptError::Synthesis(_)), "{err:?}");
        assert_eq!(adapter.transform_version(), 1);
        assert_eq!(adapter.specs(), &specs()[..]);
    }

    #[test]
    fn retain_tenants_prunes_structure() {
        let policy = Policy::parse("T1 >> T2 > T3 + T4 >> T5").unwrap();
        let kept = retain_tenants(&policy, &["T3", "T5"]).unwrap();
        assert_eq!(kept.to_string(), "T3 >> T5");
        assert!(retain_tenants(&policy, &[]).is_none());
        let same = retain_tenants(&policy, &["T1", "T2", "T3", "T4", "T5"]).unwrap();
        assert_eq!(same, policy);
    }

    #[test]
    fn retain_tenants_empty_keep_set_on_every_shape() {
        for text in ["T1", "T1 + T2", "T1 > T2", "T1 >> T2", "T1 >> T2 + T3 > T4"] {
            let policy = Policy::parse(text).unwrap();
            assert!(retain_tenants(&policy, &[]).is_none(), "policy {text}");
        }
    }

    #[test]
    fn retain_tenants_identity_preserves_weights_and_nesting() {
        let policy = Policy::parse("T1:3 + T2 > T3 >> T4:2 + T5").unwrap();
        let same = retain_tenants(&policy, &["T1", "T2", "T3", "T4", "T5"]).unwrap();
        assert_eq!(same, policy);
        assert_eq!(same.to_string(), "T1:3 + T2 > T3 >> T4:2 + T5");
    }

    #[test]
    fn retain_tenants_prunes_nested_share_and_strict_structure() {
        let policy = Policy::parse("T1 + T2 >> T3 + T4 > T5 >> T6").unwrap();
        // Dropping one share-group member keeps the group (and its weight).
        let kept = retain_tenants(&policy, &["T1", "T3", "T4", "T6"]).unwrap();
        assert_eq!(kept.to_string(), "T1 >> T3 + T4 >> T6");
        // Dropping a whole group collapses the preference chain around it.
        let kept = retain_tenants(&policy, &["T1", "T2", "T5", "T6"]).unwrap();
        assert_eq!(kept.to_string(), "T1 + T2 >> T5 >> T6");
        // Dropping a whole strict level removes the level entirely.
        let kept = retain_tenants(&policy, &["T1", "T6"]).unwrap();
        assert_eq!(kept.to_string(), "T1 >> T6");
        // A single survivor keeps only its own (single-level) policy.
        let kept = retain_tenants(&policy, &["T5"]).unwrap();
        assert_eq!(kept.to_string(), "T5");
        // Names not in the policy at all contribute nothing.
        assert!(retain_tenants(&policy, &["T9"]).is_none());
    }

    #[test]
    fn apply_empty_active_set_is_a_versioned_empty_deployment() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let mut adapter = RuntimeAdapter::new(
            specs(),
            policy,
            SynthConfig::default(),
            MonitorConfig::default(),
        );
        assert_eq!(adapter.transform_version(), 1);
        // Everyone departs: no joint policy, but the reconfiguration is
        // still versioned so snapshots of the empty state are distinct.
        let empty = Adaptation {
            active: vec![],
            tightened: vec![],
        };
        assert!(adapter.apply(&empty).unwrap().is_none());
        assert_eq!(adapter.transform_version(), 2);
        // A tenant coming back re-synthesizes and bumps again.
        let back = Adaptation {
            active: vec![TenantId(3)],
            tightened: vec![],
        };
        let deployment = adapter.apply(&back).unwrap().expect("T3 is scheduled");
        assert!(deployment.joint().chain(TenantId(3)).is_some());
        assert_eq!(adapter.transform_version(), 3);
    }

    #[test]
    fn update_spec_feeds_the_next_apply() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let mut adapter = RuntimeAdapter::new(
            specs(),
            policy,
            SynthConfig::default(),
            MonitorConfig::default(),
        );
        // T3 re-declares a wider range with explicit quantization.
        let replaced = adapter.update_spec(
            TenantSpec::new(TenantId(3), "T3", "WFQ", RankRange::new(0, 5000)).with_levels(16),
        );
        assert!(replaced);
        assert_eq!(adapter.specs()[2].algorithm, "WFQ");
        // Unknown ids are refused, population is fixed.
        assert!(!adapter.update_spec(TenantSpec::new(
            TenantId(9),
            "T9",
            "x",
            RankRange::new(0, 1)
        )));
        let all = Adaptation {
            active: vec![TenantId(1), TenantId(2), TenantId(3)],
            tightened: vec![],
        };
        let deployment = adapter.apply(&all).unwrap().unwrap();
        let spec = (deployment.joint().specs.iter())
            .find(|s| s.id == TenantId(3))
            .unwrap();
        assert_eq!(spec.range, RankRange::new(0, 5000));
        assert_eq!(spec.levels, Some(16));
    }
}
