//! The control plane: admission, resynthesis, and snapshot publication.
//!
//! [`ControlPlane`] is a plain single-threaded library struct — the daemon
//! runs one on its control thread (serializing all mutations), and the
//! churn test in `tests/serve_daemon.rs` replays the accepted-mutation log
//! through a second one and compares final state byte-for-byte.
//!
//! Admission is side-effect free: a submission or a withdrawal is
//! re-synthesized by the [`RuntimeAdapter`] and judged by `qvisor-core`'s
//! deployment gate on the default target (a PIFO, the pre-processor at
//! every egress) at the daemon's strictness (`--deny-warnings`), and a
//! refusal commits nothing — not the adapter, not the store. The policy the
//! gate admits is the one deployed: one synthesis per commit. Every gate
//! rejection carries the full structured QV-* diagnostic report plus the
//! exact candidate document (`effective_config`), so `qvisor check` on that
//! document reproduces the same diagnostics.

use std::sync::Arc;

use qvisor_core::config_api::{DeploymentConfig, TenantConfig};
use qvisor_core::{
    AdaptError, Adaptation, Admitted, MonitorConfig, RuntimeAdapter, Severity, Target,
};
use qvisor_sim::json::Value;
use qvisor_sim::TenantId;
use qvisor_telemetry::Telemetry;

use crate::registry::{ChainSnapshot, SnapshotCell};
use crate::store::{LogEntry, PolicyStore};

/// The daemon's single-threaded brain: policy store + runtime adapter +
/// published snapshot.
#[derive(Debug)]
pub struct ControlPlane {
    store: PolicyStore,
    adapter: RuntimeAdapter,
    cell: Arc<SnapshotCell>,
    telemetry: Telemetry,
    rejected: u64,
}

impl ControlPlane {
    /// Build a control plane over `config`'s tenant universe, publishing
    /// snapshots into `cell`. No tenant is live initially; the published
    /// snapshot is the empty version-1 world.
    pub fn new(
        config: &DeploymentConfig,
        deny_warnings: bool,
        cell: Arc<SnapshotCell>,
    ) -> Result<ControlPlane, String> {
        let store = PolicyStore::new(config)?;
        let (specs, policy, synth) = config
            .build()
            .map_err(|e| format!("universe config: {e}"))?;
        let telemetry = Telemetry::enabled();
        let adapter = RuntimeAdapter::new(specs, policy, synth, MonitorConfig::default())
            .with_telemetry(&telemetry)
            .with_gate(Target::default(), deny_warnings);
        cell.store(ChainSnapshot::empty());
        Ok(ControlPlane {
            store,
            adapter,
            cell,
            telemetry,
            rejected: 0,
        })
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<ChainSnapshot> {
        self.cell.load()
    }

    /// Was this submission gate-rejected or otherwise refused? (Counts
    /// only admission rejections, not protocol errors.)
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    fn reject(&mut self, tenant: &str, reason: String) -> Value {
        self.rejected += 1;
        Value::object()
            .set("ok", false)
            .set("result", "rejected")
            .set("tenant", tenant)
            .set("version", self.adapter.transform_version())
            .set("reason", reason)
    }

    /// Admit or reject one `submit-policy` request. Returns the full
    /// response value (one protocol line).
    pub fn submit(&mut self, t: TenantConfig) -> Value {
        // Structural checks against the fixed universe.
        let expected_id = match self.store.universe_entry(&t.name) {
            Some(entry) => entry.id,
            None => {
                return self.reject(
                    &t.name,
                    format!(
                        "tenant '{}' is not in the universe (the tenant set is fixed at daemon start)",
                        t.name
                    ),
                );
            }
        };
        if expected_id != t.id {
            return self.reject(
                &t.name,
                format!("tenant '{}' has id {expected_id}, not {}", t.name, t.id),
            );
        }
        if let Err(e) = t.check() {
            return self.reject(&t.name, format!("tenant '{}' {e}", t.name));
        }
        // Candidate document: current live set plus this submission.
        let Some(candidate) = self.store.effective_config_with(&t) else {
            return self.reject(
                &t.name,
                "no candidate tenant is named in the operator policy".to_string(),
            );
        };
        // Admission gate: the adapter re-synthesizes the candidate's live
        // set with this spec swapped in and core's gate judges it. A
        // refusal restores the spec and commits nothing.
        let spec = t.spec();
        let previous = self
            .adapter
            .specs()
            .iter()
            .find(|s| s.id == spec.id)
            .cloned();
        self.adapter.update_spec(spec);
        let mut active = self.store.live_ids();
        if !active.contains(&TenantId(t.id)) {
            // Insert in universe order (live_ids is universe-ordered).
            let pos = self
                .store
                .universe()
                .iter()
                .filter(|u| self.store.is_live(&u.name) || u.name == t.name)
                .position(|u| u.name == t.name)
                .expect("submitted tenant is in the universe");
            active.insert(pos, TenantId(t.id));
        }
        let adaptation = Adaptation {
            active,
            tightened: vec![],
        };
        let deployment = match self.adapter.apply(&adaptation) {
            Ok(deployment) => deployment,
            Err(err) => {
                if let Some(prev) = previous {
                    self.adapter.update_spec(prev);
                }
                return self.refuse(&t.name, err, &candidate);
            }
        };
        // Commit: record the mutation, publish the admitted policy.
        self.store.commit_submit(t.clone());
        self.publish(deployment.as_ref());
        let snap = self.cell.load();
        Value::object()
            .set("ok", true)
            .set("result", "accepted")
            .set("tenant", t.name.as_str())
            .set("version", snap.version)
            .set("fingerprint", snap.fingerprint.as_str())
    }

    /// Withdraw a live tenant; its rank space is reclaimed by resynthesis,
    /// through the same gate as a submission.
    pub fn withdraw(&mut self, name: &str) -> Value {
        if !self.store.is_live(name) {
            return crate::protocol::error_response(&format!("tenant '{name}' is not live"));
        }
        let id = TenantId(self.store.universe_entry(name).expect("live ⊆ universe").id);
        let active: Vec<TenantId> = self
            .store
            .live_ids()
            .into_iter()
            .filter(|t| *t != id)
            .collect();
        let adaptation = Adaptation {
            active,
            tightened: vec![],
        };
        let deployment = match self.adapter.apply(&adaptation) {
            Ok(deployment) => deployment,
            Err(err) => {
                let candidate = (self.store.effective_config_without(name))
                    .expect("a refused withdrawal leaves a scheduled tenant");
                return self.refuse(name, err, &candidate);
            }
        };
        self.store.commit_withdraw(name);
        self.publish(deployment.as_ref());
        let snap = self.cell.load();
        Value::object()
            .set("ok", true)
            .set("result", "withdrawn")
            .set("tenant", name)
            .set("version", snap.version)
            .set("live", self.store.live_count())
    }

    /// The rejection of a mutation whose re-synthesis failed or that the
    /// gate refused; a refusal carries the gate's report and `candidate`,
    /// the document it judged.
    fn refuse(&mut self, tenant: &str, err: AdaptError, candidate: &DeploymentConfig) -> Value {
        let refused = match err {
            AdaptError::Synthesis(e) => {
                return self.reject(tenant, format!("synthesis failed: {e}"))
            }
            AdaptError::Refused(refused) => refused,
        };
        let report = refused.report;
        let diags: Vec<Value> = report.diagnostics.iter().map(|d| d.to_value()).collect();
        self.reject(tenant, "verification gate failed".to_string())
            .set("diagnostics", Value::from(diags))
            .set("errors", report.count(Severity::Error))
            .set("warnings", report.count(Severity::Warning))
            .set("effective_config", candidate.to_value())
    }

    /// Build and publish the snapshot for the current committed state.
    fn publish(&mut self, deployment: Option<&Admitted>) {
        let policy = self
            .store
            .projected_policy()
            .map(|p| p.to_string())
            .unwrap_or_default();
        let chains = deployment
            .map(Admitted::joint)
            .map(|j| ChainSnapshot::entries_from(j, &j.specs))
            .unwrap_or_default();
        let snap = ChainSnapshot::build(
            self.adapter.transform_version(),
            policy,
            self.store.live_names(),
            self.store.log().len() as u64,
            chains,
        );
        self.cell.store(snap);
    }

    /// The `status` response line.
    pub fn status_value(&self) -> Value {
        let snap = self.cell.load();
        Value::object()
            .set("ok", true)
            .set("result", "status")
            .set("version", snap.version)
            .set("live", self.store.live_count())
            .set("accepted", self.store.log().len())
            .set("rejected", self.rejected)
            .set("policy", self.store.operator_policy())
    }

    /// The `get-log` response line (accepted mutations, commit order).
    pub fn log_value(&self) -> Value {
        let entries: Vec<Value> = self.store.log().iter().map(LogEntry::to_value).collect();
        Value::object()
            .set("ok", true)
            .set("result", "log")
            .set("entries", Value::from(entries))
    }

    /// The `shutdown` acknowledgement line.
    pub fn shutdown_value(&self) -> Value {
        let snap = self.cell.load();
        Value::object()
            .set("ok", true)
            .set("result", "shutdown")
            .set("version", snap.version)
            .set("accepted", self.store.log().len())
            .set("rejected", self.rejected)
    }

    /// The adapter registry's raw JSONL export (empty if the registry is a
    /// disabled handle). The `metrics` exposition renders this
    /// plus the daemon's own request/admission stats.
    pub fn telemetry_export(&self) -> String {
        self.telemetry.export_jsonl()
    }

    /// One telemetry-stream line: the current registry export wrapped as a
    /// single JSON object (each exported JSONL line becomes one record).
    pub fn telemetry_line(&self) -> String {
        let export = self.telemetry.export_jsonl();
        let records: Vec<Value> = export
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| Value::parse(l).ok())
            .collect();
        Value::object()
            .set("type", "telemetry_snapshot")
            .set("version", self.cell.load().version)
            .set("records", Value::from(records))
            .to_compact()
    }

    /// Rebuild a control plane by replaying an accepted-mutation log
    /// sequentially. Every entry must be re-accepted — the log records
    /// only admitted mutations — so any divergence is an error.
    pub fn replay(
        config: &DeploymentConfig,
        deny_warnings: bool,
        entries: &[LogEntry],
    ) -> Result<ControlPlane, String> {
        let cell = Arc::new(SnapshotCell::default());
        let mut plane = ControlPlane::new(config, deny_warnings, cell)?;
        for (i, entry) in entries.iter().enumerate() {
            let response = match entry {
                LogEntry::Submit(t) => plane.submit(t.clone()),
                LogEntry::Withdraw(name) => plane.withdraw(name),
            };
            if response.get("ok").and_then(Value::as_bool) != Some(true) {
                return Err(format!(
                    "replay diverged at entry {i}: {}",
                    response.to_compact()
                ));
            }
        }
        Ok(plane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_core::{verify, SpecPaths};

    fn universe() -> DeploymentConfig {
        DeploymentConfig::from_json(
            r#"{
                "tenants": [
                    {"id": 1, "name": "gold", "algorithm": "pFabric", "rank_min": 0, "rank_max": 999, "levels": 16},
                    {"id": 2, "name": "silver", "algorithm": "EDF", "rank_min": 0, "rank_max": 499},
                    {"id": 3, "name": "bronze", "algorithm": "WFQ", "rank_min": 0, "rank_max": 99}
                ],
                "policy": "gold >> silver + bronze",
                "synth": {"first_rank": 2}
            }"#,
        )
        .unwrap()
    }

    fn tenant(name: &str, cfg: &DeploymentConfig) -> TenantConfig {
        cfg.tenants.iter().find(|t| t.name == name).unwrap().clone()
    }

    fn plane() -> ControlPlane {
        ControlPlane::new(&universe(), false, Arc::new(SnapshotCell::default())).unwrap()
    }

    #[test]
    fn accepted_submissions_bump_the_version_and_publish_chains() {
        let cfg = universe();
        let mut cp = plane();
        assert_eq!(cp.snapshot().version, 1);
        let r = cp.submit(tenant("gold", &cfg));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(r.get("version").and_then(Value::as_u64), Some(2));
        let snap = cp.snapshot();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.live, vec!["gold"]);
        assert_eq!(snap.chains.len(), 1);
        assert_eq!(snap.policy, "gold");
        ChainSnapshot::verify_canonical(&snap.canonical).unwrap();

        let r = cp.submit(tenant("bronze", &cfg));
        assert_eq!(r.get("version").and_then(Value::as_u64), Some(3));
        assert_eq!(cp.snapshot().policy, "gold >> bronze");
    }

    #[test]
    fn structural_rejections_touch_nothing() {
        let cfg = universe();
        let mut cp = plane();
        let mut ghost = tenant("gold", &cfg);
        ghost.name = "ghost".into();
        let r = cp.submit(ghost);
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        assert!(r
            .get("reason")
            .and_then(Value::as_str)
            .unwrap()
            .contains("not in the universe"));

        let mut wrong_id = tenant("gold", &cfg);
        wrong_id.id = 9;
        assert!(cp.submit(wrong_id).get("reason").is_some());

        let mut empty_range = tenant("gold", &cfg);
        empty_range.rank_min = 10;
        empty_range.rank_max = 1;
        assert!(cp.submit(empty_range).get("reason").is_some());

        assert_eq!(cp.snapshot().version, 1);
        assert_eq!(cp.rejected_count(), 3);
        assert_eq!(
            cp.status_value().get("live").and_then(Value::as_u64),
            Some(0)
        );
    }

    #[test]
    fn gate_rejections_carry_diagnostics_matching_qvisor_check() {
        let cfg = universe();
        let mut cp = plane();
        // first_rank=2 means the joint policy shifts by at least 2; a
        // tenant quantized to u64::MAX levels then saturates the rank
        // space — the verifier's QV-OVERFLOW error, with a witness.
        let mut bad = tenant("gold", &cfg);
        bad.rank_max = u64::MAX;
        bad.levels = Some(u64::MAX);
        let r = cp.submit(bad);
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(r.get("result").and_then(Value::as_str), Some("rejected"));
        assert_eq!(r.get("version").and_then(Value::as_u64), Some(1));
        let diags = r.get("diagnostics").and_then(Value::as_array).unwrap();
        assert!(!diags.is_empty());
        assert!(diags
            .iter()
            .any(|d| d.get("code").and_then(Value::as_str) == Some("QV-OVERFLOW")));

        // The rejection is reproducible: verifying the returned
        // effective_config yields the identical diagnostic list.
        let doc = r.get("effective_config").unwrap().to_pretty();
        let again = DeploymentConfig::from_json(&doc).unwrap();
        let joint = again.synthesize().unwrap();
        let report = verify(&joint, &SpecPaths::config());
        let expect: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| d.to_value().to_compact())
            .collect();
        let got: Vec<String> = diags.iter().map(Value::to_compact).collect();
        assert_eq!(got, expect);
    }

    /// An accepted submission and a withdrawal synthesize once each: the
    /// adapter's synthesis is the policy the gate judged and the one
    /// deployed. A submission the gate rejects also costs one synthesis
    /// (the one it was judged on); a structural rejection costs none.
    #[test]
    fn a_commit_synthesizes_once() {
        let cfg = universe();
        let mut cp = plane();
        let syntheses = |cp: &ControlPlane| {
            let recompiles = cp.telemetry.counter("runtime_recompiles", &[]).get();
            let timed = cp.telemetry.histogram("runtime_synth_ns", &[]).count();
            assert_eq!(recompiles, timed, "every recompile here synthesizes");
            recompiles
        };
        cp.submit(tenant("gold", &cfg));
        assert_eq!(syntheses(&cp), 1);
        cp.submit(tenant("silver", &cfg));
        assert_eq!(syntheses(&cp), 2);
        cp.withdraw("gold");
        assert_eq!(syntheses(&cp), 3);
        let mut structural = tenant("bronze", &cfg);
        structural.levels = Some(0);
        cp.submit(structural);
        assert_eq!(syntheses(&cp), 3);
        let mut overflowing = tenant("bronze", &cfg);
        overflowing.rank_max = u64::MAX;
        overflowing.levels = Some(u64::MAX);
        let r = cp.submit(overflowing);
        assert_eq!(r.get("result").and_then(Value::as_str), Some("rejected"));
        assert_eq!(syntheses(&cp), 4);
        assert_eq!(cp.snapshot().version, 4);
    }

    /// `a:3 + b:4 + c` interleaves; without `a` the two one-level tenants
    /// left in the share group do not: QV-SHARE-BAND, a warning.
    fn share_universe() -> DeploymentConfig {
        DeploymentConfig::from_json(
            r#"{
                "tenants": [
                    {"id": 1, "name": "a", "algorithm": "EDF", "rank_min": 0, "rank_max": 999, "levels": 84},
                    {"id": 2, "name": "b", "algorithm": "FIFO", "rank_min": 0, "rank_max": 999, "levels": 1},
                    {"id": 3, "name": "c", "algorithm": "FIFO", "rank_min": 0, "rank_max": 999, "levels": 1}
                ],
                "policy": "a:3 + b:4 + c"
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn deny_warnings_gates_withdrawals_like_submissions() {
        let cfg = share_universe();
        for deny in [true, false] {
            let mut cp = ControlPlane::new(&cfg, deny, Arc::new(SnapshotCell::default())).unwrap();
            for name in ["a", "b", "c"] {
                let r = cp.submit(tenant(name, &cfg));
                assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{name}");
            }
            let before = (cp.snapshot().canonical.clone(), cp.log_value().to_compact());
            let r = cp.withdraw("a");
            if !deny {
                assert_eq!(r.get("result").and_then(Value::as_str), Some("withdrawn"));
                assert_eq!(cp.snapshot().version, 5);
                continue;
            }
            assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
            assert_eq!(r.get("result").and_then(Value::as_str), Some("rejected"));
            assert_eq!(r.get("tenant").and_then(Value::as_str), Some("a"));
            assert_eq!(r.get("version").and_then(Value::as_u64), Some(4));
            assert_eq!(r.get("errors").and_then(Value::as_u64), Some(0));
            assert!(r.get("warnings").and_then(Value::as_u64) >= Some(1));
            let after = (cp.snapshot().canonical.clone(), cp.log_value().to_compact());
            assert_eq!(after, before, "a refused withdrawal committed");
            assert_eq!(cp.rejected_count(), 1);
            // The rejection is reproducible from its effective_config.
            let doc = r.get("effective_config").unwrap().to_pretty();
            let again = DeploymentConfig::from_json(&doc).unwrap();
            assert_eq!(again.policy, "b:4 + c");
            let report = verify(&again.synthesize().unwrap(), &SpecPaths::config());
            assert!(report
                .diagnostics
                .iter()
                .any(|d| d.code == qvisor_core::DiagCode::ShareBand));
            let expect: Vec<String> = (report.diagnostics.iter())
                .map(|d| d.to_value().to_compact())
                .collect();
            let diags = r.get("diagnostics").and_then(Value::as_array).unwrap();
            let got: Vec<String> = diags.iter().map(Value::to_compact).collect();
            assert_eq!(got, expect);
            // Replay inherits the gate: the accepted log rebuilds the state.
            let entries: Vec<LogEntry> = (cp.log_value().get("entries"))
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|e| LogEntry::from_value(e).unwrap())
                .collect();
            let replayed = ControlPlane::replay(&cfg, deny, &entries).unwrap();
            assert_eq!(replayed.snapshot().canonical, cp.snapshot().canonical);
        }
    }

    #[test]
    fn withdrawals_reclaim_and_empty_worlds_are_versioned() {
        let cfg = universe();
        let mut cp = plane();
        cp.submit(tenant("gold", &cfg));
        cp.submit(tenant("silver", &cfg));
        assert_eq!(cp.snapshot().version, 3);
        let r = cp.withdraw("gold");
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        let snap = cp.snapshot();
        assert_eq!(snap.version, 4);
        assert_eq!(snap.live, vec!["silver"]);
        assert_eq!(snap.chains.len(), 1);
        // Withdrawing the last tenant publishes an empty, but versioned,
        // snapshot.
        cp.withdraw("silver");
        let snap = cp.snapshot();
        assert_eq!(snap.version, 5);
        assert!(snap.chains.is_empty());
        assert!(snap.policy.is_empty());
        // Withdrawing a non-live tenant is a protocol error, not a state
        // change.
        let r = cp.withdraw("silver");
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(cp.snapshot().version, 5);
    }

    #[test]
    fn resubmission_updates_the_spec_in_place() {
        let cfg = universe();
        let mut cp = plane();
        cp.submit(tenant("gold", &cfg));
        let mut revised = tenant("gold", &cfg);
        revised.rank_max = 100_000;
        revised.levels = Some(32);
        let r = cp.submit(revised);
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        let snap = cp.snapshot();
        assert_eq!(snap.version, 3);
        assert_eq!(snap.live, vec!["gold"]);
        assert!(snap.chains[0].chain.contains("100000"));
    }

    #[test]
    fn replaying_the_log_rebuilds_identical_state() {
        let cfg = universe();
        let mut cp = plane();
        cp.submit(tenant("gold", &cfg));
        cp.submit(tenant("bronze", &cfg));
        cp.withdraw("gold");
        cp.submit(tenant("silver", &cfg));
        let mut bad = tenant("silver", &cfg);
        bad.levels = Some(0);
        cp.submit(bad); // rejected: not in the log
        let entries: Vec<LogEntry> = {
            let v = cp.log_value();
            v.get("entries")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|e| LogEntry::from_value(e).unwrap())
                .collect()
        };
        assert_eq!(entries.len(), 4);
        let replayed = ControlPlane::replay(&cfg, false, &entries).unwrap();
        assert_eq!(replayed.snapshot().canonical, cp.snapshot().canonical);
    }

    #[test]
    fn telemetry_line_is_one_json_object() {
        let cfg = universe();
        let mut cp = plane();
        cp.submit(tenant("gold", &cfg));
        let line = cp.telemetry_line();
        let v = Value::parse(&line).unwrap();
        assert_eq!(
            v.get("type").and_then(Value::as_str),
            Some("telemetry_snapshot")
        );
        assert_eq!(v.get("version").and_then(Value::as_u64), Some(2));
    }
}
