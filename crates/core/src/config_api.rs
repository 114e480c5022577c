//! The Configuration API (Fig. 1).
//!
//! The paper's architecture exposes a configuration surface through which
//! tenants submit their specifications and the operator submits the
//! composition policy. This module is that surface as data: a serializable
//! [`DeploymentConfig`] that can be checked in next to a switch's config,
//! validated, and turned into a synthesized deployment in one call.
//!
//! ```
//! use qvisor_core::config_api::DeploymentConfig;
//!
//! let json = r#"{
//!     "tenants": [
//!         { "id": 1, "name": "T1", "algorithm": "pFabric",
//!           "rank_min": 0, "rank_max": 100000, "levels": 512 },
//!         { "id": 2, "name": "T2", "algorithm": "EDF",
//!           "rank_min": 0, "rank_max": 10000 }
//!     ],
//!     "policy": "T1 >> T2"
//! }"#;
//! let config = DeploymentConfig::from_json(json).unwrap();
//! let joint = config.synthesize().unwrap();
//! let report = qvisor_core::verify(&joint, &qvisor_core::SpecPaths::config());
//! assert!(report.guarantees_hold());
//! ```

use crate::error::{QvisorError, Result};
use crate::policy::Policy;
use crate::spec::{SynthConfig, TenantSpec};
use crate::synth::{synthesize, JointPolicy};
use qvisor_ranking::RankRange;
use qvisor_sim::json::{Field, FieldError, Obj, Path, Value};
use qvisor_sim::TenantId;

/// One tenant's declaration: the tenant document of a configuration, a
/// scenario's `qvisor.tenants`, a `submit-policy` request and the daemon's
/// log all read and write it through this one codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant identifier carried in packet labels.
    pub id: u16,
    /// Name used in the policy string.
    pub name: String,
    /// Human-readable algorithm name.
    pub algorithm: String,
    /// Smallest declared rank.
    pub rank_min: u64,
    /// Largest declared rank.
    pub rank_max: u64,
    /// Optional quantization override (omitted from JSON when `None`).
    pub levels: Option<u64>,
}

impl TenantConfig {
    /// The tenant's own rules: a non-empty rank range and at least one
    /// quantization level. On failure, what the declaration gets wrong.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.rank_min > self.rank_max {
            return Err(format!(
                "declares an empty rank range [{}, {}]",
                self.rank_min, self.rank_max
            ));
        }
        if self.levels == Some(0) {
            return Err("declares zero quantization levels".to_string());
        }
        Ok(())
    }

    /// The synthesizer's view of a declaration that passed
    /// [`TenantConfig::check`].
    pub fn spec(&self) -> TenantSpec {
        let mut spec = TenantSpec::new(
            TenantId(self.id),
            self.name.clone(),
            self.algorithm.clone(),
            RankRange::new(self.rank_min, self.rank_max),
        );
        spec.levels = self.levels;
        spec
    }

    /// The tenant document (`levels` only when set).
    pub fn to_value(&self) -> Value {
        let v = Value::object()
            .set("id", self.id)
            .set("name", self.name.as_str())
            .set("algorithm", self.algorithm.as_str())
            .set("rank_min", self.rank_min)
            .set("rank_max", self.rank_max);
        match self.levels {
            Some(levels) => v.set("levels", levels),
            None => v,
        }
    }
}

impl Field<'_> for TenantConfig {
    fn read(v: &Value, at: Path<'_>) -> std::result::Result<TenantConfig, FieldError> {
        let keys = &["id", "name", "algorithm", "rank_min", "rank_max", "levels"];
        let o = Obj::new(v, at, keys)?;
        Ok(TenantConfig {
            id: o.req("id")?,
            name: o.req("name")?,
            algorithm: o.req("algorithm")?,
            rank_min: o.req("rank_min")?,
            rank_max: o.req("rank_max")?,
            levels: o.opt("levels")?,
        })
    }
}

/// Synthesizer options, all defaulted (each may be omitted from JSON).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SynthOptions {
    /// Default quantization levels per tenant.
    pub default_levels: u64,
    /// First output rank of the joint policy.
    pub first_rank: u64,
    /// Preference bias divisor.
    pub pref_bias_divisor: u64,
}

impl Default for SynthOptions {
    fn default() -> SynthOptions {
        let c = SynthConfig::default();
        SynthOptions {
            default_levels: c.default_levels,
            first_rank: c.first_rank,
            pref_bias_divisor: c.pref_bias_divisor,
        }
    }
}

impl Field<'_> for SynthOptions {
    fn read(v: &Value, at: Path<'_>) -> std::result::Result<SynthOptions, FieldError> {
        let d = SynthOptions::default();
        let keys = &["default_levels", "first_rank", "pref_bias_divisor"];
        let o = Obj::new(v, at, keys)?;
        Ok(SynthOptions {
            default_levels: o.or("default_levels", d.default_levels)?,
            first_rank: o.or("first_rank", d.first_rank)?,
            pref_bias_divisor: o.or("pref_bias_divisor", d.pref_bias_divisor)?,
        })
    }
}

/// A complete QVISOR deployment description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeploymentConfig {
    /// Tenant entries.
    pub tenants: Vec<TenantConfig>,
    /// Operator policy string.
    pub policy: String,
    /// Synthesizer options (may be omitted from JSON entirely).
    pub synth: SynthOptions,
}

impl Field<'_> for DeploymentConfig {
    fn read(v: &Value, at: Path<'_>) -> std::result::Result<DeploymentConfig, FieldError> {
        let o = Obj::new(v, at, &["tenants", "policy", "synth"])?;
        Ok(DeploymentConfig {
            tenants: o.req("tenants")?,
            policy: o.req("policy")?,
            synth: o.opt("synth")?.unwrap_or_default(),
        })
    }
}

impl DeploymentConfig {
    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<DeploymentConfig> {
        let root = Value::parse(text).map_err(|e| QvisorError::Parse {
            at: e.at,
            msg: format!("configuration JSON: {}", e.msg),
        })?;
        DeploymentConfig::from_value(&root)
    }

    /// Decode a parsed configuration document.
    pub fn from_value(v: &Value) -> Result<DeploymentConfig> {
        DeploymentConfig::read(v, Path::Root("")).map_err(QvisorError::Config)
    }

    /// The configuration document, every synthesizer option explicit.
    pub fn to_value(&self) -> Value {
        let tenants: Vec<Value> = self.tenants.iter().map(TenantConfig::to_value).collect();
        Value::object()
            .set("tenants", Value::from(tenants))
            .set("policy", self.policy.as_str())
            .set(
                "synth",
                Value::object()
                    .set("default_levels", self.synth.default_levels)
                    .set("first_rank", self.synth.first_rank)
                    .set("pref_bias_divisor", self.synth.pref_bias_divisor),
            )
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Validate and lower into specs, policy, and synth config.
    pub fn build(&self) -> Result<(Vec<TenantSpec>, Policy, SynthConfig)> {
        let mut specs = Vec::with_capacity(self.tenants.len());
        for t in &self.tenants {
            t.check()
                .map_err(|e| QvisorError::Synthesis(format!("tenant '{}' {e}", t.name)))?;
            specs.push(t.spec());
        }
        let policy = Policy::parse(&self.policy)?;
        let synth = SynthConfig {
            default_levels: self.synth.default_levels,
            first_rank: self.synth.first_rank,
            pref_bias_divisor: self.synth.pref_bias_divisor,
        };
        Ok((specs, policy, synth))
    }

    /// One-shot: validate and synthesize the joint policy.
    pub fn synthesize(&self) -> Result<JointPolicy> {
        let (specs, policy, synth) = self.build()?;
        synthesize(&specs, &policy, synth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeploymentConfig {
        DeploymentConfig {
            tenants: vec![
                TenantConfig {
                    id: 1,
                    name: "T1".into(),
                    algorithm: "pFabric".into(),
                    rank_min: 0,
                    rank_max: 100_000,
                    levels: Some(512),
                },
                TenantConfig {
                    id: 2,
                    name: "T2".into(),
                    algorithm: "EDF".into(),
                    rank_min: 0,
                    rank_max: 10_000,
                    levels: None,
                },
            ],
            policy: "T1 >> T2".into(),
            synth: SynthOptions::default(),
        }
    }

    #[test]
    fn json_roundtrip() {
        let cfg = sample();
        let json = cfg.to_json();
        let back = DeploymentConfig::from_json(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let json = r#"{
            "tenants": [
                {"id": 1, "name": "a", "algorithm": "x", "rank_min": 0, "rank_max": 9}
            ],
            "policy": "a"
        }"#;
        let cfg = DeploymentConfig::from_json(json).unwrap();
        assert_eq!(cfg.synth, SynthOptions::default());
        assert_eq!(cfg.tenants[0].levels, None);
        assert!(cfg.synthesize().is_ok());
    }

    #[test]
    fn synthesize_end_to_end() {
        let joint = sample().synthesize().unwrap();
        assert!(joint.chain(TenantId(1)).is_some());
        let report = crate::verify(&joint, &crate::SpecPaths::config());
        assert!(report.guarantees_hold());
    }

    #[test]
    fn validation_catches_bad_entries() {
        let mut cfg = sample();
        cfg.tenants[0].rank_min = 5;
        cfg.tenants[0].rank_max = 1;
        assert!(matches!(cfg.build(), Err(QvisorError::Synthesis(_))));

        let mut cfg = sample();
        cfg.tenants[1].levels = Some(0);
        assert!(matches!(cfg.build(), Err(QvisorError::Synthesis(_))));

        let mut cfg = sample();
        cfg.policy = "T1 >> T9".into();
        assert!(matches!(
            cfg.synthesize(),
            Err(QvisorError::UnknownTenant(_))
        ));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = DeploymentConfig::from_json("{oops").unwrap_err();
        assert!(matches!(err, QvisorError::Parse { .. }));
        assert!(err.to_string().contains("configuration JSON"));
        let refused = |json: &str| match DeploymentConfig::from_json(json) {
            Err(QvisorError::Config(e)) => e,
            other => panic!("{json}: {other:?}"),
        };
        let e = refused(
            r#"{"tenants": [{"id": 1, "name": "a", "algorithm": "x", "rank_min": 0, "rank_max": 9},
                           {"id": 2, "name": "b", "algorithm": "x", "rank_min": 0}],
                "policy": "a >> b"}"#,
        );
        assert_eq!(
            QvisorError::Config(e).to_string(),
            "configuration field `tenants.1.rank_max`: missing required field"
        );
        let e = refused(
            r#"{"tenants": [{"id": 1, "name": "a", "algorithm": "x", "rank_min": 0, "rank_max": 9,
                            "levles": 16}], "policy": "a"}"#,
        );
        assert_eq!(e.path, "tenants.0.levles");
        assert_eq!(
            e.msg,
            "unknown field (allowed: id, name, algorithm, rank_min, rank_max, levels)"
        );
        let e = refused(r#"{"tenants": [], "policy": "a", "synth": 5}"#);
        assert_eq!(
            (e.path.as_str(), e.msg.as_str()),
            ("synth", "must be an object")
        );
        let e = refused(r#"{"tenants": [], "policy": "a", "sinth": {}}"#);
        assert_eq!(e.path, "sinth");
        let e = refused(
            r#"{"tenants": [{"id": 65536, "name": "a", "algorithm": "x", "rank_min": 0, "rank_max": 9}],
                "policy": "a"}"#,
        );
        assert_eq!(
            (e.path.as_str(), e.msg.as_str()),
            ("tenants.0.id", "must fit a u16")
        );
    }
}
