//! Typed run errors and run reports for the MBF pipeline.
//!
//! The `try_*` drivers of [`crate::run`] wrap every backend's run in
//! [`run_guarded`]: the closure executes under `catch_unwind`, and after
//! it returns the fault registry's fired log is audited for injected
//! faults that no layer absorbed. The contract the differential fault
//! harness enforces is
//!
//! > a run either returns a typed [`RunError`], or its output is
//! > bit-identical to the clean run,
//!
//! and the fired-log audit is what makes it sound: a poisoned (NaN)
//! entry can be *overwritten* by a later aggregation and leave behind a
//! plausible but wrong finite value, so scanning the final states
//! ([`check_states`]) is only defense in depth — the log never forgets
//! that a fault fired. Faults a layer handles by design (an `alloc_fail`
//! answered by the dense backend's typed budget error, an `io` fault
//! answered by the parser's typed error) are logged as *handled* and do
//! not fail the audit.

use mte_algebra::{NodeId, Semimodule, Semiring};
use mte_faults::{decode_panic, CaughtPanic, FaultKind, FaultSite};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A guarded run failed. Every variant is a *detected* failure — the
/// differential harness treats any of them as an acceptable outcome,
/// whereas silent corruption is not.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// An injected fault fired and was not absorbed by any layer.
    InjectedFault { site: FaultSite, kind: FaultKind },
    /// The run panicked (injected panics that identify themselves are
    /// reported as [`RunError::InjectedFault`] instead).
    Panicked { message: String },
    /// The final states contain a value no semiring operation can
    /// produce (NaN poison that survived to the end).
    CorruptState { vertex: NodeId },
    /// A dense run could not allocate its matrix: the block exceeds the
    /// budget, or an injected allocation failure fired. `budget_bytes`
    /// is the budget in force, `None` if unlimited (an injected failure
    /// needs none).
    DenseBudgetExceeded {
        requested_bytes: u64,
        budget_bytes: Option<u64>,
    },
    /// A snapshot failed to encode, write, or decode — the persistence
    /// layer's typed `SnapshotError` mapped into the run vocabulary
    /// (checkpoint sinks and resume sources raise this).
    SnapshotCorrupt { detail: String },
    /// The recovery ladder ran dry: every rung the policy allowed
    /// (checkpoint retries, then recompute-from-scratch if enabled)
    /// failed. `last` is the final rung's error.
    RetriesExhausted { attempts: u32, last: Box<RunError> },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InjectedFault { site, kind } => {
                write!(f, "injected fault at site {site} ({kind}) was not handled")
            }
            RunError::Panicked { message } => write!(f, "run panicked: {message}"),
            RunError::CorruptState { vertex } => {
                write!(f, "corrupt state detected at vertex {vertex}")
            }
            RunError::DenseBudgetExceeded {
                requested_bytes,
                budget_bytes: Some(b),
            } => write!(
                f,
                "dense run needs {requested_bytes} bytes, budget is {b} bytes"
            ),
            RunError::DenseBudgetExceeded {
                requested_bytes,
                budget_bytes: None,
            } => write!(f, "dense run could not allocate {requested_bytes} bytes"),
            RunError::SnapshotCorrupt { detail } => {
                write!(f, "snapshot corrupt: {detail}")
            }
            RunError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "recovery ladder exhausted after {attempts} attempts: {last}"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// A degradation a run took to complete instead of failing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// One checkpoint-retry rung of the recovery ladder failed; the
    /// supervisor moved on to the next rung. Recorded per failed
    /// attempt so the report shows the full ladder taken.
    CheckpointRetryFailed { attempt: u32, cause: String },
    /// The run failed but a retry from the last good checkpoint
    /// succeeded on attempt `attempt` — the output is as good as an
    /// uninterrupted run's (bit-identical states by the resume
    /// contract), only the path there degraded.
    RecoveredFromCheckpoint { attempt: u32, cause: String },
    /// Checkpoint retries were exhausted (or no checkpoint existed) and
    /// the supervisor fell back to recomputing from scratch, which
    /// succeeded.
    RecomputedFromScratch { cause: String },
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::CheckpointRetryFailed { attempt, cause } => {
                write!(f, "checkpoint retry {attempt} failed: {cause}")
            }
            Degradation::RecoveredFromCheckpoint { attempt, cause } => {
                write!(f, "recovered from checkpoint on retry {attempt} ({cause})")
            }
            Degradation::RecomputedFromScratch { cause } => {
                write!(f, "recomputed from scratch ({cause})")
            }
        }
    }
}

/// How a guarded run went: the success-side metadata of the `try_*`
/// entry points.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// `true` iff the run reached its fixpoint within the hop cap.
    pub converged: bool,
    /// Hops executed, counting those before a resumed checkpoint
    /// (numbered like `Checkpoint::hop`; for the oracle, simulated
    /// `H`-iterations).
    pub hops: u64,
    /// Degradations taken to complete (empty for a clean run).
    pub degradations: Vec<Degradation>,
}

/// Runs `f` under `catch_unwind` and audits the fault registry's fired
/// log around it. Returns `f`'s value only if no panic unwound *and*
/// no unhandled injected fault fired during the run.
pub fn run_guarded<T>(f: impl FnOnce() -> T) -> Result<T, RunError> {
    let serial = mte_faults::fired_serial();
    let value =
        catch_unwind(AssertUnwindSafe(f)).map_err(|payload| match decode_panic(payload) {
            CaughtPanic::Injected(site) => RunError::InjectedFault {
                site,
                kind: FaultKind::Panic,
            },
            CaughtPanic::Message(message) => RunError::Panicked { message },
        })?;
    if let Some(fired) = mte_faults::first_unhandled_since(serial) {
        return Err(RunError::InjectedFault {
            site: fired.site,
            kind: fired.kind,
        });
    }
    Ok(value)
}

/// Defense-in-depth scan of a final state vector: reports the first
/// vertex whose state fails [`Semimodule::is_sane`].
pub fn check_states<S, M>(states: &[M]) -> Result<(), RunError>
where
    S: Semiring,
    M: Semimodule<S>,
{
    match states.iter().position(|x| !x.is_sane()) {
        Some(v) => Err(RunError::CorruptState {
            vertex: v as NodeId,
        }),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// The deterministic recovery supervisor.
// ---------------------------------------------------------------------

/// Bounds of the recovery ladder a [`Supervisor`] walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries from the last good checkpoint before falling back (0 =
    /// skip straight to the scratch rung).
    pub max_retries: u32,
    /// Whether the final rung — recompute from scratch, ignoring all
    /// checkpoints — is allowed.
    pub allow_scratch: bool,
}

impl Default for RecoveryPolicy {
    /// Two checkpoint retries, then scratch.
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            allow_scratch: true,
        }
    }
}

/// Which rung of the recovery ladder an entry closure is asked to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAttempt {
    /// The first, ordinary execution.
    Primary,
    /// Retry `attempt` (1-based) from the last good checkpoint. The
    /// entry closure decides what "last good checkpoint" means — resume
    /// from an in-memory [`crate::run::Checkpoint`], reload a
    /// snapshot file, or re-enter with a fresh sink.
    RetryFromCheckpoint { attempt: u32 },
    /// The final rung: recompute from scratch, using no checkpoint.
    Scratch,
}

/// The deterministic recovery supervisor: walks a failed guarded run
/// down the recovery ladder — primary → bounded checkpoint retries →
/// recompute-from-scratch — and records every rung taken as
/// [`Degradation`]s in the successful rung's [`RunReport`].
/// Deterministic end to end: the ladder is a pure function of the entry
/// closure's results, no clocks, no randomness.
#[derive(Clone, Copy, Debug, Default)]
pub struct Supervisor {
    policy: RecoveryPolicy,
}

impl Supervisor {
    /// A supervisor with the given ladder bounds.
    pub fn new(policy: RecoveryPolicy) -> Self {
        Supervisor { policy }
    }

    /// Runs `entry` down the recovery ladder until a rung succeeds.
    ///
    /// `entry` is invoked with the [`RecoveryAttempt`] describing the
    /// rung; it should wrap one of the guarded `try_*` twins (or a
    /// checkpointed/resume driver). On success the ladder's history is
    /// merged into the returned [`RunReport::degradations`]. If every
    /// allowed rung fails, the result is
    /// [`RunError::RetriesExhausted`] wrapping the last rung's error.
    ///
    /// A retry that fails with [`RunError::SnapshotCorrupt`] proves the
    /// checkpoint itself is unusable: the remaining checkpoint retries
    /// are skipped and the ladder drops straight to the scratch rung.
    pub fn run<T>(
        &self,
        mut entry: impl FnMut(RecoveryAttempt) -> Result<(T, RunReport), RunError>,
    ) -> Result<(T, RunReport), RunError> {
        let mut ladder: Vec<Degradation> = Vec::new();
        let mut last = match entry(RecoveryAttempt::Primary) {
            Ok(ok) => return Ok(ok),
            Err(e) => e,
        };
        let mut attempts = 1u32;
        let mut checkpoint_unusable = matches!(last, RunError::SnapshotCorrupt { .. });
        for attempt in 1..=self.policy.max_retries {
            if checkpoint_unusable {
                break;
            }
            let cause = last.to_string();
            match entry(RecoveryAttempt::RetryFromCheckpoint { attempt }) {
                Ok((value, mut report)) => {
                    ladder.push(Degradation::RecoveredFromCheckpoint { attempt, cause });
                    ladder.append(&mut report.degradations);
                    report.degradations = ladder;
                    return Ok((value, report));
                }
                Err(e) => {
                    ladder.push(Degradation::CheckpointRetryFailed {
                        attempt,
                        cause: e.to_string(),
                    });
                    checkpoint_unusable = matches!(e, RunError::SnapshotCorrupt { .. });
                    last = e;
                    attempts += 1;
                }
            }
        }
        if self.policy.allow_scratch {
            let cause = last.to_string();
            match entry(RecoveryAttempt::Scratch) {
                Ok((value, mut report)) => {
                    ladder.push(Degradation::RecomputedFromScratch { cause });
                    ladder.append(&mut report.degradations);
                    report.degradations = ladder;
                    return Ok((value, report));
                }
                Err(e) => {
                    last = e;
                    attempts += 1;
                }
            }
        }
        Err(RunError::RetriesExhausted {
            attempts,
            last: Box::new(last),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_algebra::MinPlus;

    #[test]
    fn guarded_run_passes_values_through() {
        mte_faults::clear();
        assert_eq!(run_guarded(|| 7), Ok(7));
    }

    #[test]
    fn guarded_run_reports_plain_panics() {
        mte_faults::clear();
        let err = run_guarded(|| -> u32 { panic!("boom") }).unwrap_err();
        assert_eq!(
            err,
            RunError::Panicked {
                message: "boom".to_string()
            }
        );
    }

    #[test]
    fn state_scan_flags_poison() {
        let mut states = vec![MinPlus::new(1.0), MinPlus::new(2.0)];
        assert_eq!(check_states::<MinPlus, MinPlus>(&states), Ok(()));
        Semiring::poison(&mut states[1]);
        assert_eq!(
            check_states::<MinPlus, MinPlus>(&states),
            Err(RunError::CorruptState { vertex: 1 })
        );
    }

    fn boom() -> RunError {
        RunError::Panicked {
            message: "boom".to_string(),
        }
    }

    #[test]
    fn supervisor_passes_clean_runs_through() {
        let sup = Supervisor::new(RecoveryPolicy::default());
        let (value, report) = sup
            .run(|attempt| {
                assert_eq!(attempt, RecoveryAttempt::Primary);
                Ok((
                    7,
                    RunReport {
                        converged: true,
                        hops: 3,
                        degradations: Vec::new(),
                    },
                ))
            })
            .unwrap();
        assert_eq!(value, 7);
        assert!(report.degradations.is_empty());
    }

    #[test]
    fn supervisor_recovers_from_checkpoint_and_records_the_ladder() {
        let sup = Supervisor::new(RecoveryPolicy::default());
        let mut calls = Vec::new();
        let (value, report) = sup
            .run(|attempt| {
                calls.push(attempt);
                match attempt {
                    RecoveryAttempt::Primary => Err(boom()),
                    RecoveryAttempt::RetryFromCheckpoint { attempt: 1 } => Err(boom()),
                    _ => Ok((
                        42,
                        RunReport {
                            converged: true,
                            hops: 5,
                            degradations: Vec::new(),
                        },
                    )),
                }
            })
            .unwrap();
        assert_eq!(value, 42);
        assert_eq!(
            calls,
            vec![
                RecoveryAttempt::Primary,
                RecoveryAttempt::RetryFromCheckpoint { attempt: 1 },
                RecoveryAttempt::RetryFromCheckpoint { attempt: 2 },
            ]
        );
        assert_eq!(report.degradations.len(), 2);
        assert!(matches!(
            report.degradations[0],
            Degradation::CheckpointRetryFailed { attempt: 1, .. }
        ));
        assert!(matches!(
            report.degradations[1],
            Degradation::RecoveredFromCheckpoint { attempt: 2, .. }
        ));
    }

    #[test]
    fn supervisor_falls_back_to_scratch() {
        let sup = Supervisor::new(RecoveryPolicy {
            max_retries: 1,
            allow_scratch: true,
        });
        let (_, report) = sup
            .run(|attempt| match attempt {
                RecoveryAttempt::Scratch => Ok((
                    (),
                    RunReport {
                        converged: true,
                        hops: 1,
                        degradations: Vec::new(),
                    },
                )),
                _ => Err(boom()),
            })
            .unwrap();
        assert!(matches!(
            report.degradations.last(),
            Some(Degradation::RecomputedFromScratch { .. })
        ));
    }

    #[test]
    fn supervisor_reports_exhaustion_with_the_last_error() {
        let sup = Supervisor::new(RecoveryPolicy {
            max_retries: 2,
            allow_scratch: false,
        });
        let err = sup.run(|_| -> Result<((), RunReport), _> { Err(boom()) });
        match err.unwrap_err() {
            RunError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3); // primary + 2 retries
                assert_eq!(*last, boom());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_skips_straight_to_scratch() {
        let sup = Supervisor::new(RecoveryPolicy::default());
        let mut calls = Vec::new();
        let (_, report) = sup
            .run(|attempt| {
                calls.push(attempt);
                match attempt {
                    RecoveryAttempt::Primary => Err(boom()),
                    RecoveryAttempt::RetryFromCheckpoint { .. } => Err(RunError::SnapshotCorrupt {
                        detail: "bad crc".to_string(),
                    }),
                    RecoveryAttempt::Scratch => Ok((
                        (),
                        RunReport {
                            converged: true,
                            hops: 1,
                            degradations: Vec::new(),
                        },
                    )),
                }
            })
            .unwrap();
        // Retry 1 proves the checkpoint unusable; retry 2 never runs.
        assert_eq!(
            calls,
            vec![
                RecoveryAttempt::Primary,
                RecoveryAttempt::RetryFromCheckpoint { attempt: 1 },
                RecoveryAttempt::Scratch,
            ]
        );
        assert_eq!(report.degradations.len(), 2);
    }

    #[test]
    fn supervisor_ladder_is_deterministic() {
        // Same failure script, same ladder — run twice and compare the
        // recorded degradations exactly.
        let script = |attempt: RecoveryAttempt| match attempt {
            RecoveryAttempt::Primary => Err(boom()),
            _ => Ok((
                1u32,
                RunReport {
                    converged: true,
                    hops: 2,
                    degradations: Vec::new(),
                },
            )),
        };
        let sup = Supervisor::new(RecoveryPolicy::default());
        let a = sup.run(script).unwrap();
        let b = sup.run(script).unwrap();
        assert_eq!(a.1, b.1);
    }
}
