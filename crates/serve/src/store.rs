//! The policy store: the fixed tenant universe, the live set, and the
//! append-only log of accepted mutations.
//!
//! The daemon's config file declares the *universe* — every tenant that may
//! ever submit, with a default spec — and the operator policy over that
//! universe. At runtime tenants go live by submitting (possibly revised)
//! specs and leave by withdrawing; the store projects the operator policy
//! onto whichever subset is live. The accepted-mutation log is the daemon's
//! determinism artifact: replaying it sequentially through a fresh control
//! plane must rebuild byte-identical state.

use std::collections::BTreeSet;

use qvisor_core::config_api::{DeploymentConfig, SynthOptions, TenantConfig};
use qvisor_core::{retain_tenants, Policy};
use qvisor_sim::json::{tagged, FieldError, Obj, Path, Value};
use qvisor_sim::TenantId;

/// One accepted mutation, as recorded in the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogEntry {
    /// An admitted `submit-policy` (the spec as submitted).
    Submit(TenantConfig),
    /// An admitted `withdraw-tenant`.
    Withdraw(String),
}

/// How each log `"op"` reads its entry.
type ReadEntry = fn(&Obj<'_, '_>) -> Result<LogEntry, FieldError>;

/// Each log `"op"`, the keys its entry holds, and how it reads them.
const ENTRIES: [(&str, (&[&str], ReadEntry)); 2] = [
    (
        "submit",
        (&["op", "tenant"], |o| {
            Ok(LogEntry::Submit(o.req("tenant")?))
        }),
    ),
    (
        "withdraw",
        (&["op", "tenant"], |o| {
            Ok(LogEntry::Withdraw(o.req("tenant")?))
        }),
    ),
];

impl LogEntry {
    /// Serialize as one log line object.
    pub fn to_value(&self) -> Value {
        match self {
            LogEntry::Submit(t) => Value::object()
                .set("op", "submit")
                .set("tenant", t.to_value()),
            LogEntry::Withdraw(name) => Value::object()
                .set("op", "withdraw")
                .set("tenant", name.as_str()),
        }
    }

    /// Parse one log line object (the inverse of [`LogEntry::to_value`]).
    pub fn from_value(v: &Value) -> Result<LogEntry, FieldError> {
        let (o, read) = tagged(v, Path::Root(""), "op", &ENTRIES)?;
        read(&o)
    }
}

/// Universe + live set + accepted log. Pure data: all admission logic
/// lives in [`crate::control::ControlPlane`].
#[derive(Clone, Debug)]
pub struct PolicyStore {
    universe: Vec<TenantConfig>,
    policy: Policy,
    policy_text: String,
    synth: SynthOptions,
    live: BTreeSet<String>,
    log: Vec<LogEntry>,
}

impl PolicyStore {
    /// Build a store from a daemon config. The config's tenant list is the
    /// closed universe; its policy must parse and reference only universe
    /// names. No tenant is live initially.
    pub fn new(config: &DeploymentConfig) -> Result<PolicyStore, String> {
        let mut seen_names = BTreeSet::new();
        let mut seen_ids = BTreeSet::new();
        for t in &config.tenants {
            if !seen_names.insert(t.name.clone()) {
                return Err(format!("duplicate tenant name '{}' in universe", t.name));
            }
            if !seen_ids.insert(t.id) {
                return Err(format!("duplicate tenant id {} in universe", t.id));
            }
        }
        let policy = Policy::parse(&config.policy).map_err(|e| format!("operator policy: {e}"))?;
        for name in policy.tenant_names() {
            if !seen_names.contains(name) {
                return Err(format!(
                    "operator policy names '{name}' which is not in the tenant universe"
                ));
            }
        }
        // Full-universe validation (ranges, levels) via the config API.
        config
            .build()
            .map_err(|e| format!("universe config: {e}"))?;
        Ok(PolicyStore {
            universe: config.tenants.clone(),
            policy,
            policy_text: config.policy.clone(),
            synth: config.synth,
            live: BTreeSet::new(),
            log: Vec::new(),
        })
    }

    /// The universe entry for `name`.
    pub fn universe_entry(&self, name: &str) -> Option<&TenantConfig> {
        self.universe.iter().find(|t| t.name == name)
    }

    /// The full universe, declaration order.
    pub fn universe(&self) -> &[TenantConfig] {
        &self.universe
    }

    /// The operator policy over the full universe, as configured.
    pub fn operator_policy(&self) -> &str {
        &self.policy_text
    }

    /// Is `name` currently live?
    pub fn is_live(&self, name: &str) -> bool {
        self.live.contains(name)
    }

    /// Number of live tenants.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Live tenants, in universe declaration order.
    fn live_tenants(&self) -> impl Iterator<Item = &TenantConfig> {
        self.universe.iter().filter(|t| self.live.contains(&t.name))
    }

    /// Live tenant names, in universe declaration order.
    pub fn live_names(&self) -> Vec<String> {
        self.live_tenants().map(|t| t.name.clone()).collect()
    }

    /// Live tenant ids, in universe declaration order.
    pub fn live_ids(&self) -> Vec<TenantId> {
        self.live_tenants().map(|t| TenantId(t.id)).collect()
    }

    /// The operator policy projected onto the live set (`None` when no
    /// live tenant is scheduled).
    pub fn projected_policy(&self) -> Option<Policy> {
        let keep: Vec<&str> = self.live_tenants().map(|t| t.name.as_str()).collect();
        retain_tenants(&self.policy, &keep)
    }

    /// The candidate deployment document for the current live set with
    /// `replace` (a submission under admission) swapped in and counted as
    /// live. This is exactly the document `qvisor check` would be given:
    /// rejections are reproducible outside the daemon.
    pub fn effective_config_with(&self, replace: &TenantConfig) -> Option<DeploymentConfig> {
        let tenants: Vec<TenantConfig> = self
            .universe
            .iter()
            .filter(|t| self.live.contains(&t.name) || t.name == replace.name)
            .map(|t| {
                if t.name == replace.name {
                    replace.clone()
                } else {
                    t.clone()
                }
            })
            .collect();
        self.document(tenants)
    }

    /// The candidate deployment document for the current live set without
    /// `name` (a withdrawal under admission); `None` when no remaining
    /// tenant is scheduled.
    pub fn effective_config_without(&self, name: &str) -> Option<DeploymentConfig> {
        self.document(
            self.live_tenants()
                .filter(|t| t.name != name)
                .cloned()
                .collect(),
        )
    }

    /// The deployment document of `tenants` under the operator policy
    /// projected onto them; `None` when none of them is scheduled.
    fn document(&self, tenants: Vec<TenantConfig>) -> Option<DeploymentConfig> {
        let names: Vec<&str> = tenants.iter().map(|t| t.name.as_str()).collect();
        let policy = retain_tenants(&self.policy, &names)?;
        Some(DeploymentConfig {
            tenants,
            policy: policy.to_string(),
            synth: self.synth,
        })
    }

    /// Record an accepted submission: the universe entry is replaced by
    /// the submitted spec, the tenant goes live, the log grows.
    pub fn commit_submit(&mut self, t: TenantConfig) {
        if let Some(slot) = self.universe.iter_mut().find(|u| u.name == t.name) {
            *slot = t.clone();
        }
        self.live.insert(t.name.clone());
        self.log.push(LogEntry::Submit(t));
    }

    /// Record an accepted withdrawal.
    pub fn commit_withdraw(&mut self, name: &str) {
        self.live.remove(name);
        self.log.push(LogEntry::Withdraw(name.to_string()));
    }

    /// The accepted-mutation log, commit order.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> DeploymentConfig {
        DeploymentConfig::from_json(
            r#"{
                "tenants": [
                    {"id": 1, "name": "gold", "algorithm": "pFabric", "rank_min": 0, "rank_max": 999, "levels": 16},
                    {"id": 2, "name": "silver", "algorithm": "EDF", "rank_min": 0, "rank_max": 499},
                    {"id": 3, "name": "bronze", "algorithm": "WFQ", "rank_min": 0, "rank_max": 99}
                ],
                "policy": "gold >> silver + bronze"
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn starts_empty_and_projects_live_subset() {
        let mut store = PolicyStore::new(&universe()).unwrap();
        assert_eq!(store.live_count(), 0);
        assert!(store.projected_policy().is_none());
        store.commit_submit(store.universe_entry("silver").unwrap().clone());
        assert_eq!(store.projected_policy().unwrap().to_string(), "silver");
        store.commit_submit(store.universe_entry("gold").unwrap().clone());
        assert_eq!(
            store.projected_policy().unwrap().to_string(),
            "gold >> silver"
        );
        assert_eq!(store.live_names(), vec!["gold", "silver"]);
        store.commit_withdraw("gold");
        assert_eq!(store.projected_policy().unwrap().to_string(), "silver");
        assert_eq!(store.log().len(), 3);
    }

    #[test]
    fn effective_config_swaps_in_the_submission() {
        let mut store = PolicyStore::new(&universe()).unwrap();
        store.commit_submit(store.universe_entry("bronze").unwrap().clone());
        let mut revised = store.universe_entry("gold").unwrap().clone();
        revised.rank_max = 123_456;
        let cand = store.effective_config_with(&revised).unwrap();
        assert_eq!(cand.tenants.len(), 2);
        assert_eq!(cand.tenants[0].name, "gold");
        assert_eq!(cand.tenants[0].rank_max, 123_456);
        assert_eq!(cand.policy, "gold >> bronze");
        // The store itself is untouched until commit.
        assert_eq!(store.universe_entry("gold").unwrap().rank_max, 999);
        assert!(!store.is_live("gold"));
    }

    #[test]
    fn effective_config_without_drops_the_withdrawal() {
        let mut store = PolicyStore::new(&universe()).unwrap();
        for name in ["gold", "bronze"] {
            store.commit_submit(store.universe_entry(name).unwrap().clone());
        }
        let cand = store.effective_config_without("gold").unwrap();
        assert_eq!(cand.tenants.len(), 1);
        assert_eq!(cand.tenants[0].name, "bronze");
        assert_eq!(cand.policy, "bronze");
        assert!(store.is_live("gold"), "the store is untouched until commit");
        store.commit_withdraw("gold");
        assert!(store.effective_config_without("bronze").is_none());
    }

    #[test]
    fn log_entries_round_trip_and_refuse_keys_they_do_not_read() {
        let gold = universe().tenants[0].clone();
        for entry in [LogEntry::Submit(gold), LogEntry::Withdraw("gold".into())] {
            assert_eq!(LogEntry::from_value(&entry.to_value()), Ok(entry));
        }
        let refused = |line: &str| {
            (LogEntry::from_value(&Value::parse(line).unwrap()).unwrap_err()).to_string()
        };
        assert_eq!(
            refused(r#"{"op":"withdraw","tenant":"gold","at":3}"#),
            "field `at`: unknown field (allowed: op, tenant)"
        );
        assert!(refused(
            r#"{"op":"submit","tenant":{"id":1,"name":"gold","algorithm":"x","rank_min":0,"rank_max":9,"level":2}}"#
        )
        .starts_with("field `tenant.level`: unknown field"));
        assert!(refused(r#"{"op":"replace","tenant":"gold"}"#)
            .starts_with("field `op`: unknown value 'replace'"));
    }

    #[test]
    fn rejects_bad_universes() {
        let mut cfg = universe();
        cfg.tenants[1].name = "gold".into();
        assert!(PolicyStore::new(&cfg).unwrap_err().contains("duplicate"));

        let mut cfg = universe();
        cfg.policy = "gold >> ghost".into();
        assert!(PolicyStore::new(&cfg)
            .unwrap_err()
            .contains("not in the tenant universe"));

        let mut cfg = universe();
        cfg.policy = "gold >>".into();
        assert!(PolicyStore::new(&cfg).unwrap_err().contains("policy"));
    }
}
