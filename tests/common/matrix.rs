//! The conformance matrix's checks, its table of pinned work counters
//! and its slices. Every case — a cell of `CELLS` on one fixture of its
//! family — must reproduce the literal reference (`literal_fixpoint`,
//! or `literal_oracle` for the oracle on `H`) bit for bit, through all
//! three run drivers:
//!
//! * [`Check::Plain`] — `run_to_fixpoint_on` equals the reference in
//!   states, iterations and fixpoint flag, at the full cap and at caps 1
//!   and 2 (which must report `fixpoint: false`); the literal backend
//!   does the reference's work exactly, every other backend touches
//!   fewer vertices and relaxes fewer edges, and the pinned counters
//!   hold;
//! * [`Check::Threads`] — runs on pools of 1 and 4 threads are equal,
//!   down to the whole `WorkStats`;
//! * [`Check::Resume`] — `try_run_on` capturing every hop on one thread
//!   equals the plain run, down to its work and its report, and
//!   `try_resume_on` on four threads from every one of those captures
//!   (the distance-map ones through the snapshot codec) reproduces it.
//!
//! The differential suites run the matrix in the slices of [`SLICES`],
//! one test per slice name (`slice_tests!`), so a failure names the
//! backend and the property; `tests/conformance.rs` asserts that the
//! slices run every case under every check exactly once.

use super::{through_snapshot, with_threads, Case, Cell, Mask, State, Visit};
use metric_tree_embedding::core::engine::{MbfAlgorithm, MbfRun};
use metric_tree_embedding::core::run::{
    run_to_fixpoint_on, try_resume_on, try_run_on, Checkpoint, CheckpointPolicy, StateBackend,
};
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::*;
use std::any::Any;
use std::fmt::Debug;

/// The pinned `(hops, touched_vertices, entries_processed)` of the plain
/// runs (and of one resumed run), keyed by case label. The arena's
/// semi-naive LE lists, its k-SSP and SSSP (source 1) on the workload
/// graphs; the oracle's LE lists on its arena lane. Before the delta
/// floors the arena LE runs read gnm (381, 2_031), grid (520, 2_289),
/// path (623, 2_483); the oracle LE run on the fixture (21_019,
/// 124_972). On the highway, without the idle-level skip the oracle
/// read 846 / 29,261 / 160,134 (566 / 20,796 / 118,561 with the skip
/// but without kept relays; 557 / 20,608 / 116,677 without the delta
/// floors). Under the settled draw, resetting the relays read 305 /
/// 28,602 / 206,005 (258 / 19,744 / 130,683 keeping them, without the
/// delta floors). The resumed run starts from fresh, unprimed levels:
/// its first round re-primes every level wholesale.
pub const PINS: [(&str, (u64, u64, u64)); 13] = [
    ("ArenaLe/gnm sparse", (8, 259, 1_452)),
    ("ArenaKSsp/gnm sparse", (4, 217, 1_093)),
    ("ArenaSssp/gnm sparse", (8, 344, 413)),
    ("ArenaLe/grid 9x9", (10, 276, 1_301)),
    ("ArenaKSsp/grid 9x9", (3, 238, 1_056)),
    ("ArenaSssp/grid 9x9", (17, 379, 459)),
    ("ArenaLe/path", (48, 241, 924)),
    ("ArenaKSsp/path", (4, 172, 680)),
    ("ArenaSssp/path", (55, 218, 273)),
    ("OracleArenaLe/gnm 140", (266, 13_206, 86_698)),
    ("OracleArenaLe/idle", (557, 14_985, 91_022)),
    ("OracleArenaLe/settled", (258, 14_180, 108_995)),
    (
        "OracleArenaLe/gnm 140/resumed at hop 1",
        (172, 9_100, 78_400),
    ),
];

/// The suffix of a resumed run's label.
pub const RESUMED: &str = "/resumed at hop ";

/// What one slice checks of its cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    Plain,
    Threads,
    Resume,
}

/// A part of the matrix run by one test: `checks` on every case of
/// `cells` whose fixture is in `fixtures` (every fixture of the cells'
/// families when empty).
pub struct Slice {
    pub suite: &'static str,
    pub test: &'static str,
    pub checks: &'static [Check],
    pub cells: &'static [Cell],
    pub fixtures: &'static [&'static str],
}

impl Slice {
    pub fn covers(&self, check: Check, cell: Cell, fixture: &str) -> bool {
        self.checks.contains(&check)
            && self.cells.contains(&cell)
            && (self.fixtures.is_empty() || self.fixtures.contains(&fixture))
    }
}

const fn slice(
    suite: &'static str,
    test: &'static str,
    checks: &'static [Check],
    cells: &'static [Cell],
    fixtures: &'static [&'static str],
) -> Slice {
    Slice {
        suite,
        test,
        checks,
        cells,
        fixtures,
    }
}

use Cell::*;
use Check::{Plain, Resume, Threads};

const ENGINE: &str = "engine_equivalence";
const SCHEDULE: &str = "schedule_equivalence";
const RESUMES: &str = "checkpoint_resume";
/// The fixtures the arena's work pins were taken on, and the others of
/// the fixpoint family.
const WORKLOADS: &[&str] = &["gnm sparse", "grid 9x9", "path"];
const OTHERS: &[&str] = &["disconnected", "gnm 160"];
const MASKED: &[Cell] = &[
    ArenaMaskedLe(Mask::Singleton),
    ArenaMaskedLe(Mask::EveryThird),
    ArenaMaskedLe(Mask::WithoutMin),
];

/// The slices, by suite and test; a test may run several.
#[rustfmt::skip]
pub const SLICES: &[Slice] = &[
    slice(ENGINE, "widest_paths_and_connectivity_strategies_agree", &[Plain], &[LiteralWidestPaths, LiteralConnectivity], &[]),
    slice(ENGINE, "sssp_strategies_bit_identical_on_workloads", &[Plain], &[ArenaSssp], OTHERS),
    slice(ENGINE, "apsp_restricted_strategies_bit_identical_on_workloads", &[Plain], &[LiteralKSsp], &[]),
    slice(ENGINE, "apsp_restricted_strategies_bit_identical_on_workloads", &[Plain], &[ArenaKSsp], OTHERS),
    slice(ENGINE, "le_list_strategies_bit_identical_on_workloads", &[Plain], &[ArenaLe], &["disconnected"]),
    slice(ENGINE, "engine_outputs_bit_identical_across_thread_counts", &[Threads], &[LiteralWidestPaths, LiteralConnectivity, LiteralKSsp, ArenaSssp, ArenaKSsp], &[]),
    slice(ENGINE, "oracle_outputs_bit_identical_across_thread_counts", &[Threads], &[OracleArenaKSsp], &[]),
    slice(SCHEDULE, "pruned_le_merge_bit_identical_to_reference_and_cheaper", &[Plain], &[ArenaLe], &["gnm 160"]),
    slice(SCHEDULE, "pruned_le_merge_bit_identical_across_thread_counts", &[Threads], &[ArenaLe], &[]),
    slice(SCHEDULE, "arena_backend_bit_identical_to_literal_loop", &[Plain], &[ArenaLe, ArenaKSsp, ArenaSssp], WORKLOADS),
    slice(SCHEDULE, "source_masked_le_lists_on_arena_match_literal_and_resume", &[Plain, Resume], MASKED, &[]),
    slice(SCHEDULE, "arena_engine_bit_identical_across_thread_counts", &[Threads], MASKED, &[]),
    slice(SCHEDULE, "dense_block_backend_bit_identical_to_literal_loop", &[Plain], &[DenseApsp], &[]),
    slice(SCHEDULE, "dense_block_bit_identical_across_thread_counts", &[Threads], &[DenseApsp], &[]),
    slice(SCHEDULE, "oracle_carry_over_bit_identical_to_all_dirty_restart", &[Plain], &[OracleArenaKSsp], &[]),
    slice(SCHEDULE, "oracle_carry_over_bit_identical_across_thread_counts", &[Threads], &[OracleArenaLe], &[]),
    slice(SCHEDULE, "arena_oracle_bit_identical_to_literal_oracle", &[Plain], &[OracleArenaLe], &["gnm 140", "gnm 60"]),
    slice(SCHEDULE, "oracle_idle_levels_skip_bit_identically", &[Plain], &[OracleArenaLe], &["idle"]),
    slice(SCHEDULE, "oracle_settled_levels_keep_relays_bit_identically", &[Plain], &[OracleArenaLe], &["settled"]),
    slice(SCHEDULE, "dense_oracle_bit_identical_to_literal_oracle_across_threads", &[Plain, Threads], &[OracleDenseApsp], &[]),
    slice(RESUMES, "literal_every_checkpoint_resumes_bit_identically_across_threads", &[Resume], &[LiteralWidestPaths, LiteralConnectivity], &[]),
    slice(RESUMES, "persist_roundtripped_checkpoints_resume_bit_identically", &[Resume], &[LiteralKSsp], &[]),
    slice(RESUMES, "arena_every_checkpoint_resumes_bit_identically_across_threads", &[Resume], &[ArenaSssp, ArenaKSsp, ArenaLe], &[]),
    slice(RESUMES, "dense_every_checkpoint_resumes_bit_identically_across_threads", &[Resume], &[DenseApsp], &[]),
    slice(RESUMES, "oracle_every_checkpoint_resumes_bit_identically_across_threads", &[Resume], &[OracleArenaLe, OracleArenaKSsp, OracleDenseApsp], &[]),
];

/// Declares one `#[test]` per name, each running the slices of that
/// name.
#[macro_export]
macro_rules! slice_tests {
    ($($test:ident),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                $crate::common::matrix::run_slice(stringify!($test));
            }
        )*
    };
}

/// Runs the slices of `test`.
pub fn run_slice(test: &str) {
    let slices: Vec<&Slice> = SLICES.iter().filter(|s| s.test == test).collect();
    assert!(!slices.is_empty(), "no slice for {test}");
    for slice in slices {
        run(slice);
    }
}

fn run(slice: &Slice) {
    for &cell in slice.cells {
        for fx in cell.family() {
            for &check in slice.checks {
                if !slice.covers(check, cell, fx.name) {
                    continue;
                }
                match check {
                    Plain => cell.visit(&fx, &mut PlainCheck),
                    Threads => cell.visit(&fx, &mut ThreadsCheck),
                    Resume => cell.visit(&fx, &mut ResumeCheck),
                }
            }
        }
    }
}

/// Asserts `work` against the pin of `label`, if there is one.
fn check_pin(label: &str, work: &WorkStats) {
    if let Some((_, want)) = PINS.iter().find(|(l, _)| *l == label) {
        let got = (
            work.iterations,
            work.touched_vertices,
            work.entries_processed,
        );
        assert_eq!(got, *want, "{label}: hops, touched, entries");
    }
}

/// `run` has `want`'s states, iteration count and fixpoint flag.
pub fn assert_same_run<M: PartialEq + Debug>(run: &MbfRun<M>, want: &MbfRun<M>, label: &str) {
    assert_eq!(run.states, want.states, "{label}: states diverged");
    assert_eq!(run.iterations, want.iterations, "{label}: iterations");
    assert_eq!(run.fixpoint, want.fixpoint, "{label}: fixpoint flag");
}

/// The plain run from a fresh backend.
fn plain<A: MbfAlgorithm, B: StateBackend<A>>(case: &Case<'_, A, B>, cap: usize) -> MbfRun<A::M> {
    run_to_fixpoint_on((case.backend)(), case.alg, case.g, cap)
}

/// A distance-map checkpoint after its round trip through the snapshot
/// codec; `None` for the state types the codec does not carry.
fn codec_round_trip<M: 'static>(ckpt: &Checkpoint<M>) -> Option<Checkpoint<M>> {
    let ckpt = (ckpt as &dyn Any).downcast_ref::<Checkpoint<DistanceMap>>()?;
    let decoded = through_snapshot(ckpt).expect("the snapshot decodes");
    assert_eq!(&decoded, ckpt, "the round trip changed the checkpoint");
    let decoded: Box<dyn Any> = Box::new(decoded);
    Some(*decoded.downcast().expect("the same type"))
}

struct PlainCheck;

impl Visit for PlainCheck {
    fn visit<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
        &mut self,
        case: &Case<'_, A, B>,
    ) {
        let label = &case.label;
        for cap in [1, 2] {
            let run = plain(case, cap);
            assert_same_run(&run, &(case.reference)(cap), &format!("{label}/cap {cap}"));
            assert!(!run.fixpoint, "{label}/cap {cap}: fixpoint reported");
        }
        let literal = (case.reference)(case.cap);
        assert!(
            literal.fixpoint && literal.iterations > 2,
            "{label}: too short"
        );
        let run = plain(case, case.cap);
        assert_same_run(&run, &literal, label);
        let (want, got) = (&literal.work, &run.work);
        if matches!(
            case.cell,
            LiteralWidestPaths | LiteralConnectivity | LiteralKSsp
        ) {
            assert_eq!(got, want, "{label}: work");
        } else {
            // Every run goes past the hop where some vertex settles, so
            // the frontier (or the carry-over) skips something. The
            // dense lane counts its entries in block coordinates.
            assert!(
                got.touched_vertices < want.touched_vertices,
                "{label}: skipped nothing"
            );
            assert!(
                got.edge_relaxations < want.edge_relaxations,
                "{label}: skipped nothing"
            );
            if !matches!(case.cell, DenseApsp | OracleDenseApsp) {
                assert!(
                    got.entries_processed <= want.entries_processed,
                    "{label}: entries"
                );
            }
        }
        check_pin(label, &run.work);
    }
}

struct ThreadsCheck;

impl Visit for ThreadsCheck {
    fn visit<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
        &mut self,
        case: &Case<'_, A, B>,
    ) {
        let [r1, r4] = [1, 4].map(|threads| with_threads(threads, || plain(case, case.cap)));
        assert_same_run(&r4, &r1, &case.label);
        assert_eq!(r4.work, r1.work, "{}: work differs", case.label);
    }
}

struct ResumeCheck;

impl Visit for ResumeCheck {
    fn visit<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
        &mut self,
        case: &Case<'_, A, B>,
    ) {
        let label = &case.label;
        let want = plain(case, case.cap);
        let mut captures = Vec::new();
        let policy = CheckpointPolicy::every_hops(1);
        let (run, report) = with_threads(1, || {
            try_run_on((case.backend)(), case.alg, case.g, case.cap, policy, |c| {
                captures.push(c.clone());
                Ok(())
            })
        })
        .unwrap_or_else(|e| panic!("{label}: guarded run failed: {e}"));
        assert_same_run(&run, &want, label);
        assert_eq!(run.work, want.work, "{label}: work");
        assert_eq!(
            (report.converged, report.hops),
            (run.fixpoint, run.iterations as u64),
            "{label}: report"
        );
        // Every hop but the confirming one is captured, in order.
        let hops: Vec<u64> = captures.iter().map(|c| c.hop).collect();
        assert_eq!(
            hops,
            (1..run.iterations as u64).collect::<Vec<_>>(),
            "{label}"
        );
        with_threads(4, || {
            for ckpt in &captures {
                let decoded = codec_round_trip(ckpt);
                let ckpt = decoded.as_ref().unwrap_or(ckpt);
                let at = format!("{label}{RESUMED}{}", ckpt.hop);
                let (resumed, report) =
                    try_resume_on((case.backend)(), case.alg, case.g, case.cap, ckpt)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_same_run(&resumed, &run, &at);
                assert!(report.converged, "{at}");
                check_pin(&at, &resumed.work);
            }
        });
    }
}
