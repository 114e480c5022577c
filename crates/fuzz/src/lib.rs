#![deny(missing_docs)]

//! # qvisor-fuzz — policy fuzzing + differential conformance harness
//!
//! The static verifier (`qvisor-core::verify`) is the admission gate for
//! `qvisor run`, `qvisor sweep`, and the serve daemon. This crate closes
//! the loop at scale: it generates random operator deployments over the
//! full `>>`/`>`/`+` grammar and *differentially* checks every verifier
//! verdict against what actually happens on an exact PIFO.
//!
//! The pipeline, per generated case ([`run_case`]):
//!
//! 1. **Generate** ([`gen`]): a random [`DeploymentConfig`] — tenant
//!    count, rank ranges (wide/narrow/degenerate/huge), per-tenant level
//!    overrides, a random policy string with weights and share groups,
//!    adversarial synthesizer options (`first_rank` near `u64::MAX`
//!    forces saturation) — plus a random rank-function mix. All
//!    randomness flows from `SimRng::seed_from(seed).derive(case)`;
//!    there is no ambient RNG anywhere, so a campaign is a pure function
//!    of `(seed, cases)`.
//! 2. **Verify**: the case, materialized as a dumbbell [`ScenarioSpec`],
//!    is synthesized and run through the static verifier once — the
//!    scenario engine's verification, exactly what `qvisor check` does,
//!    with spans rooted at the deployment config.
//! 3. **Replay witnesses** ([`oracle`]): every diagnostic that carries a
//!    concrete [`Witness`] is re-executed through the real
//!    `TransformChain::apply`; error-severity refutations must reproduce
//!    the claimed misbehavior (non-monotone pairs must actually invert on
//!    a PIFO, collapse/overflow pairs must actually collide, cross-tenant
//!    overlap pairs must actually misorder).
//! 4. **Queue oracle**: sampled tenant traffic is pushed through a bare
//!    `PifoQueue` and drained once. Every packet is resident before the
//!    first dequeue, so both counts come from the pop order: a pop is a
//!    rank inversion iff a later pop has a strictly lower rank (never, on
//!    an exact PIFO), and a cross-tenant strict-level inversion iff a
//!    later pop has a strictly lower level. The check keeps no mirror, so
//!    it is independent of the `RankIndex` the PIFO is built on. A policy
//!    the verifier proved clean must show zero.
//! 5. **Scenario oracle**: for non-error verdicts the engine builds the
//!    dumbbell from that verification — deploying the joint policy it
//!    judged, not a second synthesis — and runs it end to end with a
//!    streaming tracer: each record goes to the cross-level scan as the
//!    run makes it, which counts cross-tenant strict-level inversions. No
//!    trace is kept, so none is read back or can lose records.
//!
//! Any disagreement is auto-[minimized](minimize::minimize) — tenants
//! dropped, levels merged, weights and transform parameters pushed toward
//! identity — while preserving the disagreement, and emitted as a
//! self-contained JSON document (see [`corpus`]) that `qvisor check` and
//! the `tests/fuzz_regressions.rs` suite can replay bit-for-bit.
//!
//! Campaigns ([`campaign`]) fan cases over OS threads with the sweep
//! runner's atomic work-index pattern and merge results in case order, so
//! the summary report is byte-identical at any `--jobs`.
//!
//! [`DeploymentConfig`]: qvisor_core::DeploymentConfig
//! [`Witness`]: qvisor_core::Witness
//! [`ScenarioSpec`]: qvisor_netsim::ScenarioSpec

pub mod campaign;
pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod oracle;

pub use campaign::{run_campaign, CampaignOpts, CampaignReport, CaseFailure};
pub use corpus::{corpus_value, is_corpus_doc, replay_corpus, ReplayOutcome};
pub use gen::{generate_case, FuzzCase, DEFAULT_SEED};
pub use minimize::minimize;
pub use oracle::{run_case, run_case_with, CaseOutcome, Verdict};
