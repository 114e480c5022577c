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
use qvisor_sim::json::{self, Value};
use qvisor_sim::TenantId;

/// One tenant's entry in the configuration.
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

fn config_err(e: json::ParseError) -> QvisorError {
    QvisorError::Parse {
        at: e.at,
        msg: format!("configuration JSON: {}", e.msg),
    }
}

fn semantic(msg: impl Into<String>) -> json::ParseError {
    json::ParseError {
        at: 0,
        msg: msg.into(),
    }
}

fn tenant_from_value(v: &Value) -> std::result::Result<TenantConfig, json::ParseError> {
    let id = json::field_u64(v, "id")?;
    let id =
        u16::try_from(id).map_err(|_| semantic("field 'id' does not fit a tenant id (u16)"))?;
    let levels = match v.get("levels") {
        None => None,
        Some(l) if l.is_null() => None,
        Some(l) => Some(
            l.as_u64()
                .ok_or_else(|| semantic("field 'levels' must be a non-negative integer"))?,
        ),
    };
    Ok(TenantConfig {
        id,
        name: json::field_str(v, "name")?.to_string(),
        algorithm: json::field_str(v, "algorithm")?.to_string(),
        rank_min: json::field_u64(v, "rank_min")?,
        rank_max: json::field_u64(v, "rank_max")?,
        levels,
    })
}

fn synth_from_value(v: &Value) -> std::result::Result<SynthOptions, json::ParseError> {
    let defaults = SynthOptions::default();
    let opt = |key: &str, fallback: u64| match v.get(key) {
        None => Ok(fallback),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| semantic(format!("field '{key}' must be a non-negative integer"))),
    };
    Ok(SynthOptions {
        default_levels: opt("default_levels", defaults.default_levels)?,
        first_rank: opt("first_rank", defaults.first_rank)?,
        pref_bias_divisor: opt("pref_bias_divisor", defaults.pref_bias_divisor)?,
    })
}

impl DeploymentConfig {
    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<DeploymentConfig> {
        let root = Value::parse(text).map_err(config_err)?;
        let tenants = json::field(&root, "tenants")
            .and_then(|t| {
                t.as_array()
                    .ok_or_else(|| semantic("field 'tenants' must be an array"))
            })
            .map_err(config_err)?
            .iter()
            .map(tenant_from_value)
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(config_err)?;
        let policy = json::field_str(&root, "policy")
            .map_err(config_err)?
            .to_string();
        let synth = match root.get("synth") {
            None => SynthOptions::default(),
            Some(v) => synth_from_value(v).map_err(config_err)?,
        };
        Ok(DeploymentConfig {
            tenants,
            policy,
            synth,
        })
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let tenants: Vec<Value> = self
            .tenants
            .iter()
            .map(|t| {
                let obj = Value::object()
                    .set("id", u64::from(t.id))
                    .set("name", t.name.as_str())
                    .set("algorithm", t.algorithm.as_str())
                    .set("rank_min", t.rank_min)
                    .set("rank_max", t.rank_max);
                match t.levels {
                    Some(levels) => obj.set("levels", levels),
                    None => obj,
                }
            })
            .collect();
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
            .to_pretty()
    }

    /// Validate and lower into specs, policy, and synth config.
    pub fn build(&self) -> Result<(Vec<TenantSpec>, Policy, SynthConfig)> {
        let mut specs = Vec::with_capacity(self.tenants.len());
        for t in &self.tenants {
            if t.rank_min > t.rank_max {
                return Err(QvisorError::Synthesis(format!(
                    "tenant '{}' declares an empty rank range [{}, {}]",
                    t.name, t.rank_min, t.rank_max
                )));
            }
            if t.levels == Some(0) {
                return Err(QvisorError::Synthesis(format!(
                    "tenant '{}' declares zero quantization levels",
                    t.name
                )));
            }
            let mut spec = TenantSpec::new(
                TenantId(t.id),
                t.name.clone(),
                t.algorithm.clone(),
                RankRange::new(t.rank_min, t.rank_max),
            );
            spec.levels = t.levels;
            specs.push(spec);
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
    }
}
