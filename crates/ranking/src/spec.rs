//! Declarative rank-function specifications.
//!
//! Completes the Fig. 1 Configuration API on the tenant side: a rank
//! function described as data (JSON-serializable), buildable into the
//! corresponding [`RankFn`] implementation. Simulation harnesses can keep
//! an entire experiment — topology, tenants, rank functions, policy — in
//! one config file.

use crate::funcs::{ArrivalTime, ByteCountFq, Constant, Edf, Lstf, PFabric, Stfq};
use crate::multi::MultiObjective;
use crate::RankFn;
use qvisor_sim::json::{tagged, Field, FieldError, Obj, Path, Value};
use qvisor_sim::Nanos;

/// A rank function as data. See the variants for parameter meanings; all
/// produce ranks where lower = more urgent.
///
/// The JSON form is internally tagged on `"algorithm"` with snake_case
/// variant names, e.g. `{"algorithm": "p_fabric", "unit_bytes": 1000,
/// "max_rank": 100000}`.
#[derive(Clone, Debug, PartialEq)]
pub enum RankFnSpec {
    /// pFabric/SRPT: remaining flow size.
    PFabric {
        /// Bytes per rank unit.
        unit_bytes: u64,
        /// Largest emitted rank.
        max_rank: u64,
    },
    /// Earliest deadline first: slack to deadline.
    Edf {
        /// Nanoseconds per rank unit.
        unit_ns: u64,
        /// Largest emitted rank.
        max_rank: u64,
    },
    /// Least slack time first.
    Lstf {
        /// Nanoseconds per rank unit.
        unit_ns: u64,
        /// Largest emitted rank.
        max_rank: u64,
        /// Line rate used to estimate remaining transmission time.
        line_rate_bps: u64,
    },
    /// Start-time fair queueing.
    Stfq {
        /// Largest emitted rank.
        max_rank: u64,
    },
    /// Byte-count fair queueing (bytes already sent).
    ByteCountFq {
        /// Bytes per rank unit.
        unit_bytes: u64,
        /// Largest emitted rank.
        max_rank: u64,
    },
    /// FIFO+ arrival-time ranking.
    ArrivalTime {
        /// Nanoseconds per rank unit.
        unit_ns: u64,
        /// Largest emitted rank.
        max_rank: u64,
    },
    /// A constant rank.
    Constant {
        /// The rank.
        rank: u64,
    },
    /// Weighted multi-objective combination (§5).
    MultiObjective {
        /// `(component, weight)` pairs.
        components: Vec<(RankFnSpec, u32)>,
        /// Per-component normalization resolution.
        resolution: u64,
    },
}

impl RankFnSpec {
    /// Render as a JSON value tagged on `"algorithm"`.
    pub fn to_value(&self) -> Value {
        match self {
            RankFnSpec::PFabric {
                unit_bytes,
                max_rank,
            } => Value::object()
                .set("algorithm", "p_fabric")
                .set("unit_bytes", *unit_bytes)
                .set("max_rank", *max_rank),
            RankFnSpec::Edf { unit_ns, max_rank } => Value::object()
                .set("algorithm", "edf")
                .set("unit_ns", *unit_ns)
                .set("max_rank", *max_rank),
            RankFnSpec::Lstf {
                unit_ns,
                max_rank,
                line_rate_bps,
            } => Value::object()
                .set("algorithm", "lstf")
                .set("unit_ns", *unit_ns)
                .set("max_rank", *max_rank)
                .set("line_rate_bps", *line_rate_bps),
            RankFnSpec::Stfq { max_rank } => Value::object()
                .set("algorithm", "stfq")
                .set("max_rank", *max_rank),
            RankFnSpec::ByteCountFq {
                unit_bytes,
                max_rank,
            } => Value::object()
                .set("algorithm", "byte_count_fq")
                .set("unit_bytes", *unit_bytes)
                .set("max_rank", *max_rank),
            RankFnSpec::ArrivalTime { unit_ns, max_rank } => Value::object()
                .set("algorithm", "arrival_time")
                .set("unit_ns", *unit_ns)
                .set("max_rank", *max_rank),
            RankFnSpec::Constant { rank } => Value::object()
                .set("algorithm", "constant")
                .set("rank", *rank),
            RankFnSpec::MultiObjective {
                components,
                resolution,
            } => {
                let comps: Vec<Value> = components
                    .iter()
                    .map(|(spec, w)| Value::from(vec![spec.to_value(), Value::from(*w)]))
                    .collect();
                Value::object()
                    .set("algorithm", "multi_objective")
                    .set("components", Value::from(comps))
                    .set("resolution", *resolution)
            }
        }
    }

    /// Instantiate the described rank function.
    pub fn build(&self) -> Box<dyn RankFn> {
        match self {
            RankFnSpec::PFabric {
                unit_bytes,
                max_rank,
            } => Box::new(PFabric::new(*unit_bytes, *max_rank)),
            RankFnSpec::Edf { unit_ns, max_rank } => Box::new(Edf::new(Nanos(*unit_ns), *max_rank)),
            RankFnSpec::Lstf {
                unit_ns,
                max_rank,
                line_rate_bps,
            } => Box::new(Lstf::new(Nanos(*unit_ns), *max_rank, *line_rate_bps)),
            RankFnSpec::Stfq { max_rank } => Box::new(Stfq::new(*max_rank)),
            RankFnSpec::ByteCountFq {
                unit_bytes,
                max_rank,
            } => Box::new(ByteCountFq::new(*unit_bytes, *max_rank)),
            RankFnSpec::ArrivalTime { unit_ns, max_rank } => {
                Box::new(ArrivalTime::new(Nanos(*unit_ns), *max_rank))
            }
            RankFnSpec::Constant { rank } => Box::new(Constant(*rank)),
            RankFnSpec::MultiObjective {
                components,
                resolution,
            } => Box::new(MultiObjective::new(
                components
                    .iter()
                    .map(|(spec, w)| (spec.build(), *w))
                    .collect(),
                *resolution,
            )),
        }
    }
}

/// How each `"algorithm"` reads the rest of its object.
type ReadAlgorithm = fn(&Obj<'_, '_>) -> Result<RankFnSpec, FieldError>;

/// Each `"algorithm"`, the keys its object holds, and how it reads them.
const ALGORITHMS: [(&str, (&[&str], ReadAlgorithm)); 8] = [
    (
        "p_fabric",
        (&["algorithm", "unit_bytes", "max_rank"], |o| {
            Ok(RankFnSpec::PFabric {
                unit_bytes: o.req("unit_bytes")?,
                max_rank: o.req("max_rank")?,
            })
        }),
    ),
    (
        "edf",
        (&["algorithm", "unit_ns", "max_rank"], |o| {
            Ok(RankFnSpec::Edf {
                unit_ns: o.req("unit_ns")?,
                max_rank: o.req("max_rank")?,
            })
        }),
    ),
    (
        "lstf",
        (
            &["algorithm", "unit_ns", "max_rank", "line_rate_bps"],
            |o| {
                Ok(RankFnSpec::Lstf {
                    unit_ns: o.req("unit_ns")?,
                    max_rank: o.req("max_rank")?,
                    line_rate_bps: o.req("line_rate_bps")?,
                })
            },
        ),
    ),
    (
        "stfq",
        (&["algorithm", "max_rank"], |o| {
            Ok(RankFnSpec::Stfq {
                max_rank: o.req("max_rank")?,
            })
        }),
    ),
    (
        "byte_count_fq",
        (&["algorithm", "unit_bytes", "max_rank"], |o| {
            Ok(RankFnSpec::ByteCountFq {
                unit_bytes: o.req("unit_bytes")?,
                max_rank: o.req("max_rank")?,
            })
        }),
    ),
    (
        "arrival_time",
        (&["algorithm", "unit_ns", "max_rank"], |o| {
            Ok(RankFnSpec::ArrivalTime {
                unit_ns: o.req("unit_ns")?,
                max_rank: o.req("max_rank")?,
            })
        }),
    ),
    (
        "constant",
        (&["algorithm", "rank"], |o| {
            Ok(RankFnSpec::Constant {
                rank: o.req("rank")?,
            })
        }),
    ),
    (
        "multi_objective",
        (&["algorithm", "components", "resolution"], |o| {
            Ok(RankFnSpec::MultiObjective {
                components: o.req("components")?,
                resolution: o.req("resolution")?,
            })
        }),
    ),
];

/// The object tagged on `"algorithm"`; only that algorithm's keys may
/// appear beside the tag.
impl Field<'_> for RankFnSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<RankFnSpec, FieldError> {
        let (o, read) = tagged(v, at, "algorithm", &ALGORITHMS)?;
        read(&o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RankCtx;
    use qvisor_sim::FlowId;

    fn from_json(text: &str) -> Result<RankFnSpec, FieldError> {
        RankFnSpec::read(&Value::parse(text).unwrap(), Path::Root(""))
    }

    #[test]
    fn every_variant_builds_and_ranks() {
        let specs = vec![
            RankFnSpec::PFabric {
                unit_bytes: 1_000,
                max_rank: 100,
            },
            RankFnSpec::Edf {
                unit_ns: 1_000,
                max_rank: 100,
            },
            RankFnSpec::Lstf {
                unit_ns: 1_000,
                max_rank: 100,
                line_rate_bps: 1_000_000,
            },
            RankFnSpec::Stfq { max_rank: 100 },
            RankFnSpec::ByteCountFq {
                unit_bytes: 1_000,
                max_rank: 100,
            },
            RankFnSpec::ArrivalTime {
                unit_ns: 1_000,
                max_rank: 100,
            },
            RankFnSpec::Constant { rank: 7 },
        ];
        let ctx = RankCtx::simple(Nanos::from_micros(5), FlowId(1), 50_000, 10_000);
        for spec in specs {
            let mut f = spec.build();
            let r = f.rank(&ctx);
            assert!(f.range().contains(r), "{spec:?} emitted {r}");
        }
    }

    #[test]
    fn json_roundtrip() {
        let spec = RankFnSpec::MultiObjective {
            components: vec![
                (
                    RankFnSpec::PFabric {
                        unit_bytes: 1_000,
                        max_rank: 1_000,
                    },
                    7,
                ),
                (
                    RankFnSpec::Edf {
                        unit_ns: 1_000,
                        max_rank: 1_000,
                    },
                    3,
                ),
            ],
            resolution: 1_000,
        };
        let json = spec.to_value().to_compact();
        let back = from_json(&json).unwrap();
        assert_eq!(spec, back);
        let mut f = back.build();
        assert_eq!(f.name(), "multi-objective");
        let ctx = RankCtx::simple(Nanos::ZERO, FlowId(1), 1_000, 0);
        assert!(f.range().contains(f.rank(&ctx)));
    }

    #[test]
    fn json_shape_is_human_writable() {
        let json = r#"{"algorithm": "p_fabric", "unit_bytes": 1000, "max_rank": 100000}"#;
        let spec = from_json(json).unwrap();
        assert_eq!(
            spec,
            RankFnSpec::PFabric {
                unit_bytes: 1_000,
                max_rank: 100_000
            }
        );
    }

    #[test]
    fn rejects_unknown_algorithm_and_bad_shapes() {
        let err = from_json(r#"{"algorithm": "fancy"}"#).unwrap_err();
        assert_eq!(err.path, "algorithm");
        assert!(err
            .msg
            .starts_with("unknown value 'fancy' (allowed: p_fabric, edf,"));
        assert!(from_json(r#"{"unit_bytes": 1}"#).is_err());
        assert!(from_json("[1, 2]").is_err());
        assert!(from_json(
            r#"{"algorithm": "multi_objective", "components": [3], "resolution": 10}"#
        )
        .is_err());
        let err = from_json(r#"{"algorithm": "stfq", "max_rank": 9, "unit_ns": 1}"#).unwrap_err();
        assert_eq!(err.path, "unit_ns");
        assert_eq!(err.msg, "unknown field (allowed: algorithm, max_rank)");
        let err = from_json(
            r#"{"algorithm": "multi_objective", "resolution": 10,
                "components": [[{"algorithm": "constant", "rank": 1}, 4294967296]]}"#,
        )
        .unwrap_err();
        assert_eq!(err.path, "components.0.1");
        assert_eq!(err.msg, "must fit a u32");
    }
}
