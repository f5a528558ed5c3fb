//! Property-based scenario corpus: synthesized worlds, differential
//! execution-path testing, and corpus-level adequacy reporting.
//!
//! The corpus layer closes the loop the paper leaves implicit: if the
//! perturbation engine is itself the measurement instrument, every axis of
//! its execution (worker count, the dedup/memoizing/budgeted planner,
//! static pruning, incremental vs. batch oracle) must report the *same*
//! verdicts. This module synthesizes hundreds of valid
//! [`WorldSpec`] worlds with scripted behaviors ([`generate`]), runs each
//! through every path and compares verdict sets byte-for-byte
//! ([`harness`]), shrinks any divergence or panic to a minimal world diff
//! ([`mod@shrink`]), and rolls the whole corpus into an adequacy dashboard
//! ([`report`]).
//!
//! Everything is deterministic from a single `u64` seed: per-scenario RNG
//! streams are derived by index, and each scenario's seed is recorded in
//! the report so a CI failure replays exactly.
//!
//! [`WorldSpec`]: crate::engine::spec::WorldSpec

pub mod behavior;
pub mod generate;
pub mod harness;
pub mod report;
pub mod shrink;

pub use behavior::{BehaviorScript, BehaviorStep};
pub use generate::{synthesize, synthesize_one, CorpusConfig, DEFAULT_CORPUS_SEED};
pub use harness::{differential_check, run_corpus, Divergence, PathOutcome, ScenarioOutcome};
pub use report::{CorpusReport, ScenarioAdequacy};
pub use shrink::{shrink, ShrinkResult};

use serde::{Deserialize, Serialize};

use crate::engine::planner::fnv1a;
use crate::engine::spec::WorldSpec;

/// One synthesized test scenario: a world plus the scripted behavior that
/// exercises it, tagged with the RNG seed that produced both.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Stable corpus-wide identifier (`gen-<corpus seed>-<index>`).
    pub id: String,
    /// The derived per-scenario seed (printed on failure for exact replay).
    pub seed: u64,
    /// The synthesized world.
    pub spec: WorldSpec,
    /// The synthesized application behavior.
    pub script: BehaviorScript,
}

impl Scenario {
    /// Content fingerprint over the serialized world *and* script; stable
    /// across re-synthesis from the same seed.
    pub fn fingerprint(&self) -> u64 {
        let spec = serde_json::to_string(&self.spec).expect("world specs serialize");
        let script = serde_json::to_string(&self.script).expect("behavior scripts serialize");
        fnv1a(format!("{spec}\n{script}").as_bytes())
    }
}
