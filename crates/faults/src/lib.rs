//! Deterministic fault injection for the MBF pipeline.
//!
//! # Design
//!
//! Production layers (query serving, external ingestion, dynamic edits)
//! sit on top of a compute core whose failure behavior must be *proved*,
//! not assumed: a fault anywhere in the pipeline must surface as a typed
//! error or leave the output bit-identical to a clean run — never a
//! silently wrong answer. This crate provides the instrumentation side
//! of that proof:
//!
//! * **Named injection sites** ([`FaultSite`]) — fixed points in the
//!   pipeline (engine hop commit, arena span read, dense row kernel,
//!   oracle level loop, worker-pool chunk, `.gr` parser, snapshot
//!   encode/decode) that consult the registry on every pass.
//! * **Fault plans** ([`FaultPlan`]) — a deterministic list of
//!   injections, each "at the `nth` arrival at `site`, fire `kind`",
//!   built in code or parsed from the `MTE_FAULT_PLAN` environment
//!   variable.
//! * **A fired-fault log** — every fault that actually fired is
//!   recorded with a monotonic serial. The typed run API
//!   (`mte_core::error`) snapshots the serial before a run and treats
//!   any *unhandled* fault fired during the run as grounds for a typed
//!   error, even if the corruption it injected would otherwise go
//!   unnoticed (a NaN poisoned into a min-plus state can be "healed"
//!   to a plausible but *wrong* finite value by later merges — the log
//!   is the ground truth, state scans are defense in depth).
//!
//! Sites that **handle** a fault gracefully (e.g. the dense-block
//! allocator treating [`FaultKind::AllocFail`] as budget exhaustion and
//! degrading to the sparse path) record it via [`check_handled`]; the
//! audit in [`first_unhandled_since`] skips those, so a gracefully
//! degraded run still reports success.
//!
//! # Cost when disarmed
//!
//! [`check_for`] is a single relaxed atomic load on the hot path once
//! the registry is initialized (first call reads `MTE_FAULT_PLAN`).
//! Sites can therefore be compiled in unconditionally. The audit is
//! lock-free too until something fires: [`fired_serial`] is one
//! acquire load, and [`first_unhandled_since`] returns `None` without
//! touching the registry lock while the serial has not moved past its
//! snapshot.
//!
//! # Determinism
//!
//! Arrival counters are global, so under a multi-threaded pool the
//! *which arrival wins* race is nondeterministic — but the contract
//! verified by the differential harness quantifies over that: for every
//! interleaving, the run either errors or matches the clean output.
//! With `MTE_THREADS=1` arrivals are fully deterministic.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;

/// Environment variable holding a fault-plan spec (see
/// [`FaultPlan::parse`]); read once, on the first [`check_for`] call.
pub const FAULT_PLAN_ENV: &str = "MTE_FAULT_PLAN";

/// A named injection point in the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Every hop's commit, once per hop: after the commit of
    /// `LiteralBackend`'s and `DenseBackend`'s `step` (`panic`,
    /// `poison_nan`), before the commit of `ArenaBackend`'s `step`
    /// (`panic`).
    EngineHopCommit,
    /// `EpochStore::get`: a borrowed span view handed to a recompute.
    ArenaSpanRead,
    /// The dense row kernel (`relax_rows_tracked`) and the dense-block
    /// allocator (`DenseBlock::try_new`, reached by
    /// every `DenseBackend` start and resume).
    DenseRowKernel,
    /// The oracle's per-level task, once per level per simulated
    /// iteration.
    OracleLevelLoop,
    /// The worker pool, at the start of every claimed chunk body.
    WorkerChunk,
    /// `read_gr`, before any input is consumed.
    GrParser,
    /// `mte_persist` snapshot encoding, after the sections are
    /// serialized but before the bytes leave the encoder — an injected
    /// `io` fault here corrupts the encoded image (torn write, bit
    /// flip, or zeroed magic, chosen deterministically from the image
    /// length).
    SnapshotWrite,
    /// `mte_persist` snapshot decoding, before any byte is parsed — an
    /// injected `io` fault here surfaces as a typed
    /// `SnapshotError::Io`, absorbed like the parser's.
    SnapshotRead,
    /// `mte_serving` oracle-artifact load, before any section is
    /// decoded — an injected `io` fault surfaces as a typed
    /// `ServeError::Artifact`, absorbed like `snapshot_read`'s.
    ServeArtifactRead,
    /// `mte_serving` per-query budget checkpoint, charged once per
    /// work-unit batch — an injected panic aborts the query mid-ladder
    /// (absorbed into a typed `ServeError` by the guarded front-end).
    ServeQueryBudget,
}

/// The **single source of truth** for site spec names: one `(site,
/// name)` row per [`FaultSite`] variant, consumed by [`FaultSite::name`],
/// [`FaultPlan::parse`] and [`FaultSite::ALL`] alike — a call site, a
/// plan spec and the registry can therefore never disagree on a
/// spelling. The `fault-site-registry` rule of `cargo xtask analyze`
/// parses this table and cross-checks every `FaultSite::…` reference and
/// every plan-spec string literal in the workspace against it.
pub const SITE_NAMES: [(FaultSite, &str); 10] = [
    (FaultSite::EngineHopCommit, "engine_hop_commit"),
    (FaultSite::ArenaSpanRead, "arena_span_read"),
    (FaultSite::DenseRowKernel, "dense_row_kernel"),
    (FaultSite::OracleLevelLoop, "oracle_level_loop"),
    (FaultSite::WorkerChunk, "worker_chunk"),
    (FaultSite::GrParser, "gr_parser"),
    (FaultSite::SnapshotWrite, "snapshot_write"),
    (FaultSite::SnapshotRead, "snapshot_read"),
    (FaultSite::ServeArtifactRead, "serve_artifact_read"),
    (FaultSite::ServeQueryBudget, "serve_query_budget"),
];

/// The [`SITE_NAMES`] counterpart for [`FaultKind`] spec names.
pub const KIND_NAMES: [(FaultKind, &str); 5] = [
    (FaultKind::Panic, "panic"),
    (FaultKind::PoisonNan, "poison_nan"),
    (FaultKind::TruncateSpan, "truncate_span"),
    (FaultKind::AllocFail, "alloc_fail"),
    (FaultKind::Io, "io"),
];

/// Maps `site` to its row in the name table.
const fn site_row(site: FaultSite, i: usize) -> usize {
    // Const-evaluated linear scan; `SITE_NAMES` is exhaustive (pinned by
    // the `name_tables_are_exhaustive` test), so the recursion always
    // terminates before running off the table.
    if (SITE_NAMES[i].0 as u32) == (site as u32) {
        i
    } else {
        site_row(site, i + 1)
    }
}

impl FaultSite {
    /// Every site, for exhaustive harness sweeps (derived from
    /// [`SITE_NAMES`]).
    pub const ALL: [FaultSite; 10] = [
        SITE_NAMES[0].0,
        SITE_NAMES[1].0,
        SITE_NAMES[2].0,
        SITE_NAMES[3].0,
        SITE_NAMES[4].0,
        SITE_NAMES[5].0,
        SITE_NAMES[6].0,
        SITE_NAMES[7].0,
        SITE_NAMES[8].0,
        SITE_NAMES[9].0,
    ];

    /// The spec name used by [`FaultPlan::parse`], read from
    /// [`SITE_NAMES`].
    pub const fn name(self) -> &'static str {
        SITE_NAMES[site_row(self, 0)].1
    }

    fn parse(s: &str) -> Option<FaultSite> {
        SITE_NAMES
            .into_iter()
            .find_map(|(site, name)| (name == s).then_some(site))
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injection does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `panic_any(InjectedPanic { site })` at the site.
    Panic,
    /// Corrupt one state entry with a NaN/poisoned value
    /// (`Semimodule::poison`).
    PoisonNan,
    /// Hand out a span view one entry shorter than the real state.
    TruncateSpan,
    /// Simulated allocation failure (dense-block allocator).
    AllocFail,
    /// Simulated I/O failure (`.gr` parser).
    Io,
}

/// Maps `kind` to its row in the name table (cf. [`site_row`]).
const fn kind_row(kind: FaultKind, i: usize) -> usize {
    if (KIND_NAMES[i].0 as u32) == (kind as u32) {
        i
    } else {
        kind_row(kind, i + 1)
    }
}

impl FaultKind {
    /// Every kind, for exhaustive harness sweeps (derived from
    /// [`KIND_NAMES`]).
    pub const ALL: [FaultKind; 5] = [
        KIND_NAMES[0].0,
        KIND_NAMES[1].0,
        KIND_NAMES[2].0,
        KIND_NAMES[3].0,
        KIND_NAMES[4].0,
    ];

    /// The spec name used by [`FaultPlan::parse`], read from
    /// [`KIND_NAMES`].
    pub const fn name(self) -> &'static str {
        KIND_NAMES[kind_row(self, 0)].1
    }

    fn parse(s: &str) -> Option<FaultKind> {
        KIND_NAMES
            .into_iter()
            .find_map(|(kind, name)| (name == s).then_some(kind))
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One planned injection: at the `nth` arrival at `site` (1-based,
/// counting only arrivals whose accept set contains `kind`), fire
/// `kind`; keep firing on later arrivals until `hits` fires happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    pub site: FaultSite,
    pub kind: FaultKind,
    /// 1-based arrival index of the first fire.
    pub nth: u64,
    /// Number of times the injection fires (usually 1).
    pub hits: u64,
}

/// A deterministic list of [`Injection`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// The empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: adds "fire `kind` at the `nth` arrival at `site`,
    /// once".
    pub fn inject(mut self, site: FaultSite, kind: FaultKind, nth: u64) -> FaultPlan {
        self.injections.push(Injection {
            site,
            kind,
            nth: nth.max(1),
            hits: 1,
        });
        self
    }

    /// A plan with exactly one injection.
    pub fn single(site: FaultSite, kind: FaultKind, nth: u64) -> FaultPlan {
        FaultPlan::new().inject(site, kind, nth)
    }

    /// Parses a spec of the form
    /// `site:kind:nth[:hits][;site:kind:nth[:hits]...]`, e.g.
    /// `engine_hop_commit:panic:1` or
    /// `arena_span_read:truncate_span:5;gr_parser:io:1`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let fields: Vec<&str> = part.split(':').collect();
            if fields.len() < 3 || fields.len() > 4 {
                return Err(format!("bad injection {part:?}: want site:kind:nth[:hits]"));
            }
            let site = FaultSite::parse(fields[0])
                .ok_or_else(|| format!("unknown fault site {:?}", fields[0]))?;
            let kind = FaultKind::parse(fields[1])
                .ok_or_else(|| format!("unknown fault kind {:?}", fields[1]))?;
            let nth: u64 = fields[2]
                .parse()
                .map_err(|_| format!("bad arrival index {:?}", fields[2]))?;
            let hits: u64 = match fields.get(3) {
                Some(h) => h.parse().map_err(|_| format!("bad hit count {h:?}"))?,
                None => 1,
            };
            plan.injections.push(Injection {
                site,
                kind,
                nth: nth.max(1),
                hits: hits.max(1),
            });
        }
        Ok(plan)
    }

    /// The plan named by [`FAULT_PLAN_ENV`], if the variable is set and
    /// parses (a malformed spec is reported on stderr and ignored —
    /// fault injection must never corrupt a run *by accident*).
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var(FAULT_PLAN_ENV).ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) if !plan.injections.is_empty() => Some(plan),
            Ok(_) => None,
            Err(err) => {
                eprintln!("ignoring malformed {FAULT_PLAN_ENV}: {err}");
                None
            }
        }
    }
}

/// A fault that actually fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiredFault {
    pub site: FaultSite,
    pub kind: FaultKind,
    /// Monotonic fire serial (1-based, never reset).
    pub serial: u64,
    /// `true` iff the site absorbed the fault gracefully (recorded via
    /// [`check_handled`]); handled faults do not fail the audit.
    pub handled: bool,
    /// The thread that reached the site; [`first_unhandled_on_thread_since`]
    /// audits only the calling thread's fires.
    pub thread: ThreadId,
}

/// The panic payload of [`trigger_panic`]; the typed run API downcasts
/// caught payloads to this to map an injected panic back to its site.
#[derive(Clone, Copy, Debug)]
pub struct InjectedPanic {
    pub site: FaultSite,
}

struct ArmedInjection {
    site: FaultSite,
    kind: FaultKind,
    nth: u64,
    hits_left: u64,
    arrivals: u64,
}

struct Registry {
    injections: Vec<ArmedInjection>,
    log: Vec<FiredFault>,
    serial: u64,
}

const STATUS_UNINIT: u32 = 0;
const STATUS_DISARMED: u32 = 1;
const STATUS_ARMED: u32 = 2;

/// Fast-path gate: `check_for` is one relaxed load of this while
/// disarmed.
static STATUS: AtomicU32 = AtomicU32::new(STATUS_UNINIT);

/// Mirror of `Registry::serial`, stored with `Release` under the
/// registry lock on every fire, so the audit reads it without locking.
/// A fire on the auditing thread, or on a thread it joined since its
/// snapshot, happens-before the audit's `Acquire` load, which therefore
/// sees the new serial.
static SERIAL: AtomicU64 = AtomicU64::new(0);

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    injections: Vec::new(),
    log: Vec::new(),
    serial: 0,
});

fn registry() -> MutexGuard<'static, Registry> {
    // A panic while holding the lock (injected panics never do — the
    // lock is released before `trigger_panic` — but belt and braces)
    // must not wedge every later run.
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Installs `plan` as the process-global fault plan, replacing any
/// previous plan and clearing the fired log (the serial keeps
/// counting).
pub fn install(plan: FaultPlan) {
    let mut reg = registry();
    reg.injections = plan
        .injections
        .iter()
        .map(|i| ArmedInjection {
            site: i.site,
            kind: i.kind,
            nth: i.nth.max(1),
            hits_left: i.hits.max(1),
            arrivals: 0,
        })
        .collect();
    reg.log.clear();
    let armed = !reg.injections.is_empty();
    STATUS.store(
        if armed { STATUS_ARMED } else { STATUS_DISARMED },
        Ordering::SeqCst,
    );
}

/// Removes the installed plan; subsequent [`check_for`] calls are a
/// single relaxed load.
pub fn clear() {
    let mut reg = registry();
    reg.injections.clear();
    reg.log.clear();
    STATUS.store(STATUS_DISARMED, Ordering::SeqCst);
}

#[cold]
fn init_from_env() {
    match FaultPlan::from_env() {
        Some(plan) => install(plan),
        None => {
            // Racing initializers both read the same environment; the
            // exchange failing just means someone else got there first.
            let _ = STATUS.compare_exchange(
                STATUS_UNINIT,
                STATUS_DISARMED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }
}

/// The site hook: counts this arrival against every installed injection
/// for `site` whose kind is in `accepts`, and returns the kind to
/// inject if one fires. The fire is recorded as **unhandled** — a run
/// during which it happened fails the typed-error audit.
#[inline]
pub fn check_for(site: FaultSite, accepts: &[FaultKind]) -> Option<FaultKind> {
    match STATUS.load(Ordering::Relaxed) {
        STATUS_DISARMED => None,
        STATUS_UNINIT => {
            init_from_env();
            if STATUS.load(Ordering::Relaxed) == STATUS_ARMED {
                check_slow(site, accepts, false)
            } else {
                None
            }
        }
        _ => check_slow(site, accepts, false),
    }
}

/// [`check_for`] for sites that absorb the fault gracefully (simulated
/// allocation failure answered by degradation, simulated I/O failure
/// answered by a typed parse error): the fire is recorded as
/// **handled** and does not fail the audit.
#[inline]
pub fn check_handled(site: FaultSite, accepts: &[FaultKind]) -> Option<FaultKind> {
    match STATUS.load(Ordering::Relaxed) {
        STATUS_DISARMED => None,
        STATUS_UNINIT => {
            init_from_env();
            if STATUS.load(Ordering::Relaxed) == STATUS_ARMED {
                check_slow(site, accepts, true)
            } else {
                None
            }
        }
        _ => check_slow(site, accepts, true),
    }
}

#[cold]
fn check_slow(site: FaultSite, accepts: &[FaultKind], handled: bool) -> Option<FaultKind> {
    let mut reg = registry();
    let Registry {
        injections,
        log,
        serial,
    } = &mut *reg;
    for inj in injections.iter_mut() {
        if inj.site != site || inj.hits_left == 0 || !accepts.contains(&inj.kind) {
            continue;
        }
        inj.arrivals += 1;
        if inj.arrivals >= inj.nth {
            inj.hits_left -= 1;
            *serial += 1;
            SERIAL.store(*serial, Ordering::Release);
            let fired = FiredFault {
                site,
                kind: inj.kind,
                serial: *serial,
                handled,
                thread: std::thread::current().id(),
            };
            log.push(fired);
            return Some(inj.kind);
        }
    }
    None
}

/// The current fire serial — snapshot this before a run to audit it
/// afterwards. Lock-free: one `Acquire` load of the serial mirror.
pub fn fired_serial() -> u64 {
    SERIAL.load(Ordering::Acquire)
}

/// Every fault fired after `serial`, in fire order.
pub fn fired_since(serial: u64) -> Vec<FiredFault> {
    registry()
        .log
        .iter()
        .filter(|f| f.serial > serial)
        .copied()
        .collect()
}

/// The first **unhandled** fault fired after `serial`, if any — the
/// typed run API's audit primitive. It audits the fires of every
/// thread, so a run whose faults fire on pool workers is audited whole.
/// Returns `None` without locking while nothing fired after `serial`.
pub fn first_unhandled_since(serial: u64) -> Option<FiredFault> {
    first_unhandled_where(serial, |_| true)
}

/// [`first_unhandled_since`] restricted to fires recorded on the
/// calling thread — the audit for work that runs entirely on its
/// caller's thread (a served query), so that a fault fired by a
/// concurrent caller cannot fail it.
pub fn first_unhandled_on_thread_since(serial: u64) -> Option<FiredFault> {
    first_unhandled_where(serial, |f| f.thread == std::thread::current().id())
}

fn first_unhandled_where(serial: u64, keep: impl Fn(&FiredFault) -> bool) -> Option<FiredFault> {
    if SERIAL.load(Ordering::Acquire) <= serial {
        return None;
    }
    registry()
        .log
        .iter()
        .find(|f| f.serial > serial && !f.handled && keep(f))
        .copied()
}

/// Panics with an [`InjectedPanic`] payload attributing the unwind to
/// `site`.
pub fn trigger_panic(site: FaultSite) -> ! {
    std::panic::panic_any(InjectedPanic { site })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests serialize on this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial_test() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn nth_arrival_fires_once() {
        let _guard = serial_test();
        install(FaultPlan::single(
            FaultSite::EngineHopCommit,
            FaultKind::Panic,
            3,
        ));
        let accepts = [FaultKind::Panic];
        assert_eq!(check_for(FaultSite::EngineHopCommit, &accepts), None);
        // A different site never counts an arrival.
        assert_eq!(check_for(FaultSite::GrParser, &accepts), None);
        assert_eq!(check_for(FaultSite::EngineHopCommit, &accepts), None);
        assert_eq!(
            check_for(FaultSite::EngineHopCommit, &accepts),
            Some(FaultKind::Panic)
        );
        // hits = 1: exhausted.
        assert_eq!(check_for(FaultSite::EngineHopCommit, &accepts), None);
        clear();
    }

    #[test]
    fn accept_set_filters_arrivals() {
        let _guard = serial_test();
        install(FaultPlan::single(
            FaultSite::DenseRowKernel,
            FaultKind::AllocFail,
            1,
        ));
        // A kernel that only accepts Panic/PoisonNan neither fires nor
        // consumes the AllocFail injection's arrival budget.
        assert_eq!(
            check_for(
                FaultSite::DenseRowKernel,
                &[FaultKind::Panic, FaultKind::PoisonNan]
            ),
            None
        );
        assert_eq!(
            check_handled(FaultSite::DenseRowKernel, &[FaultKind::AllocFail]),
            Some(FaultKind::AllocFail)
        );
        clear();
    }

    #[test]
    fn audit_sees_unhandled_but_not_handled_fires() {
        let _guard = serial_test();
        install(
            FaultPlan::new()
                .inject(FaultSite::DenseRowKernel, FaultKind::AllocFail, 1)
                .inject(FaultSite::ArenaSpanRead, FaultKind::TruncateSpan, 1),
        );
        let before = fired_serial();
        assert!(check_handled(FaultSite::DenseRowKernel, &[FaultKind::AllocFail]).is_some());
        assert_eq!(first_unhandled_since(before), None);
        assert!(check_for(FaultSite::ArenaSpanRead, &[FaultKind::TruncateSpan]).is_some());
        let fired = first_unhandled_since(before).expect("unhandled fire recorded");
        assert_eq!(fired.site, FaultSite::ArenaSpanRead);
        assert_eq!(fired.kind, FaultKind::TruncateSpan);
        assert_eq!(fired_since(before).len(), 2);
        clear();
    }

    /// The audit's log scan as it ran before the lock-free fast path:
    /// the reference the fast path must agree with.
    fn locked_scan(serial: u64) -> Option<FiredFault> {
        registry()
            .log
            .iter()
            .find(|f| f.serial > serial && !f.handled)
            .copied()
    }

    #[test]
    fn fired_serial_is_monotone_across_install_and_clear() {
        let _guard = serial_test();
        for _ in 0..3 {
            let last = fired_serial();
            install(FaultPlan::single(FaultSite::GrParser, FaultKind::Io, 1));
            assert_eq!(fired_serial(), last, "install keeps the serial");
            assert!(check_for(FaultSite::GrParser, &[FaultKind::Io]).is_some());
            assert_eq!(fired_serial(), last + 1);
            clear();
            assert_eq!(fired_serial(), last + 1, "clear keeps the serial");
        }
    }

    #[test]
    fn audit_fast_path_agrees_with_the_locked_scan() {
        let _guard = serial_test();
        install(
            FaultPlan::new()
                .inject(FaultSite::DenseRowKernel, FaultKind::AllocFail, 1)
                .inject(FaultSite::ArenaSpanRead, FaultKind::TruncateSpan, 2),
        );
        let before = fired_serial();
        assert_eq!(first_unhandled_since(before), None);
        assert_eq!(locked_scan(before), None);
        // An arrival that does not fire leaves the serial where it was.
        let span = [FaultKind::TruncateSpan];
        assert_eq!(check_for(FaultSite::ArenaSpanRead, &span), None);
        assert_eq!(fired_serial(), before);
        // A handled fire moves the serial, and the audit skips it.
        assert!(check_handled(FaultSite::DenseRowKernel, &[FaultKind::AllocFail]).is_some());
        assert_eq!(fired_serial(), before + 1);
        assert_eq!(first_unhandled_since(before), None);
        assert_eq!(locked_scan(before), None);
        // The first unhandled fire is reported exactly as the scan finds it.
        assert!(check_for(FaultSite::ArenaSpanRead, &span).is_some());
        let fired = first_unhandled_since(before);
        assert_eq!(fired, locked_scan(before));
        assert_eq!(
            fired.map(|f| (f.site, f.kind, f.serial)),
            Some((
                FaultSite::ArenaSpanRead,
                FaultKind::TruncateSpan,
                before + 2
            ))
        );
        assert_eq!(first_unhandled_since(fired_serial()), None);
        clear();
    }

    #[test]
    fn thread_audit_sees_only_the_calling_threads_fires() {
        let _guard = serial_test();
        install(FaultPlan {
            injections: vec![Injection {
                site: FaultSite::GrParser,
                kind: FaultKind::Io,
                nth: 1,
                hits: 2,
            }],
        });
        let before = fired_serial();
        let other = std::thread::spawn(|| {
            assert!(check_for(FaultSite::GrParser, &[FaultKind::Io]).is_some());
            std::thread::current().id()
        })
        .join()
        .expect("the firing thread does not panic");
        assert_eq!(first_unhandled_on_thread_since(before), None);
        let global = first_unhandled_since(before).expect("the global audit sees every thread");
        assert_eq!((global.serial, global.thread), (before + 1, other));

        assert!(check_for(FaultSite::GrParser, &[FaultKind::Io]).is_some());
        let mine = first_unhandled_on_thread_since(before).expect("own fire is audited");
        assert_eq!(
            (mine.serial, mine.thread),
            (before + 2, std::thread::current().id())
        );
        assert_eq!(first_unhandled_since(before), Some(global));
        clear();
    }

    #[test]
    fn plan_spec_roundtrip() {
        let _guard = serial_test();
        let plan = FaultPlan::parse("engine_hop_commit:panic:1; arena_span_read:truncate_span:5:2")
            .unwrap();
        assert_eq!(
            plan.injections,
            vec![
                Injection {
                    site: FaultSite::EngineHopCommit,
                    kind: FaultKind::Panic,
                    nth: 1,
                    hits: 1
                },
                Injection {
                    site: FaultSite::ArenaSpanRead,
                    kind: FaultKind::TruncateSpan,
                    nth: 5,
                    hits: 2
                },
            ]
        );
        // analyze: fault-spec-ok(negative parse test)
        assert!(FaultPlan::parse("bogus_site:panic:1").is_err());
        // analyze: fault-spec-ok(negative parse test)
        assert!(FaultPlan::parse("gr_parser:bogus_kind:1").is_err());
        assert!(FaultPlan::parse("gr_parser:io").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
    }

    #[test]
    fn name_tables_are_exhaustive() {
        // Every variant has exactly one row, names are unique, and
        // name()/parse() roundtrip through the shared tables. (The
        // variant-list ↔ table cross-check against the *source* is done
        // by `cargo xtask analyze`'s fault-site-registry rule.)
        for site in FaultSite::ALL {
            assert_eq!(SITE_NAMES.iter().filter(|(s, _)| *s == site).count(), 1);
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        for kind in FaultKind::ALL {
            assert_eq!(KIND_NAMES.iter().filter(|(k, _)| *k == kind).count(), 1);
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        let mut site_names: Vec<&str> = SITE_NAMES.iter().map(|&(_, n)| n).collect();
        site_names.dedup();
        assert_eq!(site_names.len(), SITE_NAMES.len());
    }

    #[test]
    fn clear_disarms() {
        let _guard = serial_test();
        install(FaultPlan::single(FaultSite::GrParser, FaultKind::Io, 1));
        assert_eq!(
            check_for(FaultSite::GrParser, &[FaultKind::Io]),
            Some(FaultKind::Io)
        );
        install(FaultPlan::single(FaultSite::GrParser, FaultKind::Io, 1));
        clear();
        assert_eq!(check_for(FaultSite::GrParser, &[FaultKind::Io]), None);
    }
}
