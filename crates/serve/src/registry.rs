//! The chain registry: immutable, versioned snapshots of the deployed
//! transform chains behind an atomic pointer swap.
//!
//! The control thread is the only writer; every committed reconfiguration
//! builds a fresh [`ChainSnapshot`], serialises it once, and swaps it into
//! the shared [`SnapshotCell`]. Reader sessions clone the `Arc` out of the
//! cell — a pointer copy under a short mutex, never a data copy and never
//! a wait on resynthesis — so `get-chain`/`status`/`snapshot` requests are
//! served from a consistent world even while a new joint policy is being
//! synthesized.
//!
//! Every snapshot carries an FNV-1a fingerprint of its canonical JSON.
//! Clients (and the churn test in `tests/serve_daemon.rs`) recompute it
//! from the bytes they received: a mismatch would prove a torn read.

use std::sync::{Arc, Mutex};

use qvisor_core::{JointPolicy, TenantSpec};
use qvisor_sim::json::Value;

/// One tenant's deployed transform chain, as published to clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainEntry {
    /// Tenant identifier carried in packet labels.
    pub id: u16,
    /// Name used in the policy string.
    pub name: String,
    /// Declared scheduling algorithm.
    pub algorithm: String,
    /// Human-readable transform chain (`normalize ∘ stride ∘ shift …`).
    pub chain: String,
    /// Smallest output rank the chain can produce for declared inputs.
    pub output_min: u64,
    /// Largest output rank the chain can produce for declared inputs.
    pub output_max: u64,
}

impl ChainEntry {
    pub(crate) fn to_value(&self) -> Value {
        Value::object()
            .set("id", u64::from(self.id))
            .set("name", self.name.as_str())
            .set("algorithm", self.algorithm.as_str())
            .set("chain", self.chain.as_str())
            .set("output_min", self.output_min)
            .set("output_max", self.output_max)
    }
}

/// An immutable snapshot of the control plane's published state.
///
/// `canonical` is the compact JSON serialisation (fingerprint included)
/// that every reader hands out; byte-comparing two snapshots is the
/// daemon's replay-determinism check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSnapshot {
    /// Transform-table version from [`RuntimeAdapter::transform_version`].
    ///
    /// [`RuntimeAdapter::transform_version`]: qvisor_core::RuntimeAdapter::transform_version
    pub version: u64,
    /// The operator policy projected onto the live tenant set (empty
    /// string when no tenant is live).
    pub policy: String,
    /// Names of live tenants, in tenant-universe order.
    pub live: Vec<String>,
    /// Number of accepted mutations in the log that produced this state.
    pub accepted: u64,
    /// Published chains, one per scheduled live tenant.
    pub chains: Vec<ChainEntry>,
    /// FNV-1a 64 fingerprint of the canonical JSON minus this field,
    /// rendered as 16 lowercase hex digits.
    pub fingerprint: String,
    /// Compact canonical JSON of the full snapshot (fingerprint included).
    pub canonical: String,
}

/// FNV-1a 64-bit hash; tiny, dependency-free, and stable across runs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ChainSnapshot {
    /// The initial (version-1, nothing deployed) snapshot.
    pub fn empty() -> ChainSnapshot {
        ChainSnapshot::build(1, String::new(), Vec::new(), 0, Vec::new())
    }

    /// Assemble a snapshot: computes the fingerprint over the canonical
    /// JSON without the fingerprint field, then freezes the canonical
    /// serialisation with it included.
    pub fn build(
        version: u64,
        policy: String,
        live: Vec<String>,
        accepted: u64,
        chains: Vec<ChainEntry>,
    ) -> ChainSnapshot {
        let mut snap = ChainSnapshot {
            version,
            policy,
            live,
            accepted,
            chains,
            fingerprint: String::new(),
            canonical: String::new(),
        };
        let unfingerprinted = snap.value_with(None).to_compact();
        snap.fingerprint = format!("{:016x}", fnv1a(unfingerprinted.as_bytes()));
        snap.canonical = snap.value_with(Some(&snap.fingerprint)).to_compact();
        snap
    }

    /// Publishable chain entries for the scheduled live tenants of `joint`,
    /// in `specs` order (`specs` must be the synthesized tenant specs).
    pub fn entries_from(joint: &JointPolicy, specs: &[TenantSpec]) -> Vec<ChainEntry> {
        specs
            .iter()
            .filter_map(|spec| {
                let chain = joint.chain(spec.id)?;
                let out = chain.output_range(spec.range);
                Some(ChainEntry {
                    id: spec.id.0,
                    name: spec.name.clone(),
                    algorithm: spec.algorithm.clone(),
                    chain: chain.to_string(),
                    output_min: out.min,
                    output_max: out.max,
                })
            })
            .collect()
    }

    fn value_with(&self, fingerprint: Option<&str>) -> Value {
        let live: Vec<Value> = self.live.iter().map(|n| Value::from(n.as_str())).collect();
        let chains: Vec<Value> = self.chains.iter().map(ChainEntry::to_value).collect();
        let v = Value::object()
            .set("version", self.version)
            .set("policy", self.policy.as_str())
            .set("live", Value::from(live))
            .set("accepted", self.accepted)
            .set("chains", Value::from(chains));
        match fingerprint {
            Some(fp) => v.set("fingerprint", fp),
            None => v,
        }
    }

    /// The canonical snapshot as a JSON value (parses `canonical`).
    pub fn to_value(&self) -> Value {
        Value::parse(&self.canonical).expect("canonical snapshot JSON is well-formed")
    }

    /// Verify a received canonical snapshot line: recompute the FNV-1a
    /// fingerprint of the object minus its `fingerprint` field and compare.
    /// Returns the claimed `(version, fingerprint)` on success.
    pub fn verify_canonical(text: &str) -> Result<(u64, String), String> {
        let v = Value::parse(text).map_err(|e| format!("snapshot is not JSON: {e}"))?;
        let claimed = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("snapshot has no fingerprint")?
            .to_string();
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("snapshot has no version")?;
        let fields = v.as_object().ok_or("snapshot is not an object")?;
        let mut stripped = Value::object();
        for (k, val) in fields {
            if k != "fingerprint" {
                stripped = stripped.set(k, val.clone());
            }
        }
        let expect = format!("{:016x}", fnv1a(stripped.to_compact().as_bytes()));
        if expect != claimed {
            return Err(format!(
                "torn snapshot: fingerprint {claimed} but content hashes to {expect}"
            ));
        }
        Ok((version, claimed))
    }
}

/// Shared cell holding the current snapshot; swapped atomically by the
/// control thread, cloned (pointer-only) by reader sessions.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: Mutex<Arc<ChainSnapshot>>,
}

impl Default for SnapshotCell {
    fn default() -> SnapshotCell {
        SnapshotCell::new(ChainSnapshot::empty())
    }
}

impl SnapshotCell {
    /// A cell initially holding `snap`.
    pub fn new(snap: ChainSnapshot) -> SnapshotCell {
        SnapshotCell {
            inner: Mutex::new(Arc::new(snap)),
        }
    }

    /// Clone the current snapshot pointer (readers never block on
    /// resynthesis: this holds the lock only for an `Arc` clone).
    pub fn load(&self) -> Arc<ChainSnapshot> {
        Arc::clone(&self.inner.lock().expect("snapshot cell poisoned"))
    }

    /// Publish a new snapshot (single writer: the control thread).
    pub fn store(&self, snap: ChainSnapshot) {
        *self.inner.lock().expect("snapshot cell poisoned") = Arc::new(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_version_one_and_self_consistent() {
        let snap = ChainSnapshot::empty();
        assert_eq!(snap.version, 1);
        assert!(snap.chains.is_empty());
        let (version, fp) = ChainSnapshot::verify_canonical(&snap.canonical).unwrap();
        assert_eq!(version, 1);
        assert_eq!(fp, snap.fingerprint);
    }

    #[test]
    fn fingerprint_detects_tampered_bytes() {
        let snap = ChainSnapshot::build(
            7,
            "A >> B".into(),
            vec!["A".into(), "B".into()],
            3,
            vec![ChainEntry {
                id: 1,
                name: "A".into(),
                algorithm: "SJF".into(),
                chain: "shift+1".into(),
                output_min: 1,
                output_max: 9,
            }],
        );
        ChainSnapshot::verify_canonical(&snap.canonical).unwrap();
        // A torn read interleaving versions shows up as a hash mismatch.
        let torn = snap.canonical.replace("\"version\":7", "\"version\":8");
        assert!(ChainSnapshot::verify_canonical(&torn)
            .unwrap_err()
            .contains("torn"));
    }

    /// A reference snapshot with every field populated, shared by the
    /// exhaustive-corruption and fingerprint-stability tests below.
    fn reference_snapshot() -> ChainSnapshot {
        ChainSnapshot::build(
            7,
            "A >> B".into(),
            vec!["A".into(), "B".into()],
            3,
            vec![ChainEntry {
                id: 1,
                name: "A".into(),
                algorithm: "SJF".into(),
                chain: "shift+1".into(),
                output_min: 1,
                output_max: 9,
            }],
        )
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let snap = reference_snapshot();
        ChainSnapshot::verify_canonical(&snap.canonical).unwrap();
        // Flip one bit of every byte in turn: whatever a torn read (or a
        // corrupted transport) does to a single byte, verification must
        // refuse — either the JSON no longer parses, a required field
        // vanished, or the recomputed FNV-1a hash disagrees.
        for pos in 0..snap.canonical.len() {
            let mut bytes = snap.canonical.clone().into_bytes();
            bytes[pos] ^= 0x01;
            let Ok(corrupt) = String::from_utf8(bytes) else {
                continue; // non-UTF-8 can never reach the verifier
            };
            assert!(
                ChainSnapshot::verify_canonical(&corrupt).is_err(),
                "byte {pos} flipped ({:?} -> {:?}) was accepted",
                &snap.canonical[pos..=pos],
                &corrupt[pos..=pos],
            );
        }
    }

    #[test]
    fn the_fingerprint_algorithm_is_pinned() {
        // Clients recompute this hash from received bytes, so the FNV-1a
        // parameters and the canonical field order are wire contracts. If
        // this snapshot test fails, you changed the protocol: bump the
        // serve protocol docs and every stored fingerprint, or revert.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(format!("{:016x}", fnv1a(b"qvisor")), "12da56763934b6af");
        let snap = reference_snapshot();
        assert_eq!(snap.fingerprint, "565de8ebb4e063bf");
    }

    #[test]
    fn builds_are_deterministic() {
        let a = ChainSnapshot::build(2, "A".into(), vec!["A".into()], 1, vec![]);
        let b = ChainSnapshot::build(2, "A".into(), vec!["A".into()], 1, vec![]);
        assert_eq!(a.canonical, b.canonical);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn cell_swap_is_visible_to_readers() {
        let cell = SnapshotCell::default();
        assert_eq!(cell.load().version, 1);
        let held = cell.load();
        cell.store(ChainSnapshot::build(2, String::new(), vec![], 1, vec![]));
        // Old readers keep their immutable world; new loads see the swap.
        assert_eq!(held.version, 1);
        assert_eq!(cell.load().version, 2);
    }
}
