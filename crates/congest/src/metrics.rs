//! Run statistics reported by the simulator.

use serde::{Deserialize, Serialize};

/// Exact counts from one simulated execution, plus the execution
/// configuration they were measured under.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Rounds executed until quiescence (or the round cap).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered (per the senders' [`MessageSize`] accounting;
    /// id payloads are billed at [`id_bits`]`(n)`).
    ///
    /// [`MessageSize`]: crate::MessageSize
    /// [`id_bits`]: crate::id_bits
    pub bits: u64,
    /// Largest backlog observed on any directed edge queue (1 in strict
    /// mode; larger values indicate multiplexing pressure in queued mode).
    pub max_queue: u64,
    /// Whether the run reached quiescence (all programs done, no messages in
    /// flight) before the round cap.
    pub terminated: bool,
    /// Whether the run was cut short by [`SimConfig::max_rounds`] while
    /// messages were still in flight or wake-ups pending. Callers must treat
    /// a truncated run's program states as incomplete.
    ///
    /// [`SimConfig::max_rounds`]: crate::SimConfig::max_rounds
    pub truncated: bool,
    /// Lanes the round executor split the run into (the resolved
    /// [`SimConfig::threads`]). This is not the OS worker count, which is
    /// `min(available_parallelism, lanes)` and is not recorded. Execution
    /// configuration, not a measurement: every counter above is identical
    /// at any lane or thread count.
    ///
    /// Schema note: `threads` and `bandwidth_bits` were added to the serde
    /// surface in the facade PR; payloads serialized before then no longer
    /// deserialize (the vendored serde shim has no `#[serde(default)]`).
    /// No such payloads are persisted in this repository.
    ///
    /// [`SimConfig::threads`]: crate::SimConfig::threads
    pub threads: usize,
    /// The per-message bandwidth limit (bits) the run enforced — the
    /// resolved [`SimConfig::bandwidth_bits`].
    ///
    /// [`SimConfig::bandwidth_bits`]: crate::SimConfig::bandwidth_bits
    pub bandwidth_bits: usize,
    /// The multi-value packing factor the run coalesced sends with — the
    /// resolved [`SimConfig::message_packing`] (1 = unpacked). Execution
    /// configuration like `threads`: at `packing = 1` every counter equals
    /// the unpacked engine's; at `packing > 1` rounds/messages/bits may
    /// (and should) drop while protocol results stay identical.
    ///
    /// [`SimConfig::message_packing`]: crate::SimConfig::message_packing
    pub packing: usize,
}

/// Wall-clock breakdown of one run's round loop, reported alongside the
/// deterministic [`RunMetrics`] on [`RunOutcome::timings`].
///
/// Kept out of `RunMetrics` on purpose: metrics are bit-identical across
/// thread counts and compared with `==` by the conformance suite, while
/// timings are measurements of *this* execution.
///
/// The buckets mean the same at every thread count, because every run
/// goes through the one lane executor. Per round, including round 0
/// (`on_start`):
///
/// * `stage_ms` is the coordinator's serial window: account collection,
///   the quiescence check and the mailbox rotation;
/// * `merge_ms` is the release barrier plus the fold of the previous
///   round's accounts into the metrics, overlapped with the workers'
///   compute;
/// * `compute_ms` is the lane region: everything the coordinator's own
///   lanes do until the last lane finishes — ingest, staging, the node
///   callbacks, and the in-lane validation and routing of their sends.
///
/// [`RunOutcome::timings`]: crate::RunOutcome::timings
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Wall milliseconds in the lane region (see above).
    pub compute_ms: f64,
    /// Wall milliseconds in the coordinator's serial window.
    pub stage_ms: f64,
    /// Wall milliseconds in the overlapped account fold.
    pub merge_ms: f64,
}

impl PhaseTimings {
    /// The serial-coordination share of the loop: `(stage_ms + merge_ms) /
    /// total`, in `[0, 1]`. 0 for an empty run.
    pub fn serial_share(&self) -> f64 {
        let total = self.compute_ms + self.stage_ms + self.merge_ms;
        if total <= 0.0 {
            0.0
        } else {
            (self.stage_ms + self.merge_ms) / total
        }
    }
}

impl RunMetrics {
    /// Average messages per round (0 for empty runs).
    pub fn messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages as f64 / self.rounds as f64
        }
    }

    /// The measurement counters alone, without the execution configuration
    /// (`threads`, `bandwidth_bits`, `packing`): `(rounds, messages, bits, max_queue,
    /// terminated, truncated)`. This is the tuple that must be identical
    /// across thread counts — compare it (not whole `RunMetrics` values)
    /// when asserting thread-count invariance.
    pub fn counts(&self) -> (u64, u64, u64, u64, bool, bool) {
        (
            self.rounds,
            self.messages,
            self.bits,
            self.max_queue,
            self.terminated,
            self.truncated,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_per_round_handles_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.messages_per_round(), 0.0);
        let m = RunMetrics {
            rounds: 4,
            messages: 10,
            ..RunMetrics::default()
        };
        assert_eq!(m.messages_per_round(), 2.5);
    }

    #[test]
    fn counts_drops_the_execution_configuration() {
        let a = RunMetrics {
            rounds: 3,
            messages: 7,
            bits: 99,
            max_queue: 2,
            terminated: true,
            truncated: false,
            threads: 1,
            bandwidth_bits: 160,
            packing: 1,
        };
        let b = RunMetrics {
            threads: 4,
            packing: 8,
            ..a.clone()
        };
        assert_ne!(a, b);
        assert_eq!(a.counts(), b.counts());
    }
}
