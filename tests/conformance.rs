//! The conformance matrix: every cell of `common::CELLS` — a backend and
//! an algorithm — on every fixture of its graph family must reproduce
//! the literal reference bit for bit under three checks (plain runs at
//! full and short caps, 1 vs 4 threads, guarded runs and resumes from
//! every capture), with its work pinned where `PINS` says. The checks
//! live in `tests/common/matrix.rs` and run in slices, each under the
//! differential suite test it names (`engine_equivalence`,
//! `schedule_equivalence`, `checkpoint_resume`). This suite asserts that
//! the slices run every case under every check exactly once, and holds
//! the checks that span two backends.
//!
//! Runs on the ambient pool are sized by `MTE_THREADS`; CI runs the
//! matrix at 1 and 4.

mod common;

use common::matrix::{assert_same_run, Check, PINS, RESUMED, SLICES};
use common::{fixpoint_family, literal_fixpoint, oracle_run, Cell, Mask, CELLS};
use metric_tree_embedding::core::arena::ArenaBackend;
use metric_tree_embedding::core::catalog::SourceDetection;
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::{LiteralBackend, MbfAlgorithm};
use metric_tree_embedding::core::frt::le_list::LeListAlgorithm;
use metric_tree_embedding::core::run::{
    run_to_fixpoint_on, try_resume_on, try_run_on, CheckpointPolicy, StateBackend,
};
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::*;

/// The tests a suite declares with `slice_tests!`.
fn slice_tests(suite: &str) -> Vec<&'static str> {
    let source = match suite {
        "engine_equivalence" => include_str!("engine_equivalence.rs"),
        "schedule_equivalence" => include_str!("schedule_equivalence.rs"),
        "checkpoint_resume" => include_str!("checkpoint_resume.rs"),
        _ => panic!("no suite {suite}"),
    };
    let (_, block) = source
        .split_once("slice_tests! {")
        .expect("a slice_tests! block");
    let (block, _) = block.split_once('}').unwrap();
    block
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect()
}

/// Every case runs under every check in exactly one slice, every slice
/// names fixtures its cells have and is run by the test it names, and
/// every pin names a case.
#[test]
fn slices_run_every_case_under_every_check_once() {
    let mut labels = Vec::new();
    for cell in CELLS {
        let family = cell.family();
        for fx in &family {
            labels.push(format!("{cell:?}/{}", fx.name));
            for check in [Check::Plain, Check::Threads, Check::Resume] {
                let runs = SLICES
                    .iter()
                    .filter(|s| s.covers(check, cell, fx.name))
                    .count();
                assert_eq!(runs, 1, "{cell:?}/{}: {check:?} runs {runs} times", fx.name);
            }
        }
        for s in SLICES.iter().filter(|s| s.cells.contains(&cell)) {
            for name in s.fixtures {
                let known = family.iter().any(|fx| fx.name == *name);
                assert!(known, "{}: {cell:?} has no fixture {name}", s.test);
            }
        }
    }
    for s in SLICES {
        let declared = slice_tests(s.suite).contains(&s.test);
        assert!(declared, "no test {}::{} runs its slice", s.suite, s.test);
    }
    for (label, _) in PINS {
        let case = label.split(RESUMED).next().unwrap();
        assert!(labels.iter().any(|l| l == case), "{label} names no case");
    }
}

/// Every capture of `from` resumes on `to` to `from`'s plain run.
fn assert_resumes_across<A, F, T>(from: F, to: impl Fn() -> T, alg: &A, g: &Graph, label: &str)
where
    A: MbfAlgorithm,
    F: StateBackend<A>,
    T: StateBackend<A>,
{
    let cap = g.n() + 1;
    let mut captures = Vec::new();
    let policy = CheckpointPolicy::every_hops(1);
    let (run, _) = try_run_on(from, alg, g, cap, policy, |c| {
        captures.push(c.clone());
        Ok(())
    })
    .unwrap();
    assert!(!captures.is_empty(), "{label}: run too short");
    for ckpt in &captures {
        let (resumed, _) = try_resume_on(to(), alg, g, cap, ckpt).unwrap();
        assert_same_run(&resumed, &run, &format!("{label}/hop {}", ckpt.hop));
    }
}

/// The literal backend's frontier (the vertices its last hop changed) is
/// the arena's residual frontier, so their checkpoints resume on each
/// other.
#[test]
fn literal_and_arena_checkpoints_resume_on_each_other() {
    for fx in fixpoint_family() {
        let alg = SourceDetection::k_ssp(fx.g.n(), 4);
        let (g, name) = (&fx.g, fx.name);
        let literal = LiteralBackend::new;
        assert_resumes_across(literal(), ArenaBackend::new, &alg, g, name);
        assert_resumes_across(ArenaBackend::new(), literal, &alg, g, name);
    }
}

/// The dense backend runs the arena's frontier schedule, so on APSP the
/// two touch the same vertices and relax the same edges (the entry
/// counts are in different currencies), and the oracle's two lanes hop
/// the same schedule.
#[test]
fn dense_and_arena_share_the_frontier_schedule() {
    for fx in fixpoint_family() {
        let alg = SourceDetection::apsp(fx.g.n());
        let cap = fx.g.n() + 1;
        let arena = run_to_fixpoint_on(ArenaBackend::new(), &alg, &fx.g, cap);
        let dense = run_to_fixpoint_on(DenseBackend::new(None), &alg, &fx.g, cap);
        assert_same_run(&dense, &arena, fx.name);
        let counters = |w: &WorkStats| (w.touched_vertices, w.edge_relaxations);
        assert_eq!(counters(&dense.work), counters(&arena.work), "{}", fx.name);
        assert!(dense.work.dense_hops > 0, "{}: no dense hop", fx.name);
    }
    for fx in Cell::OracleDenseApsp.family() {
        let sim = fx.sim.as_ref().unwrap();
        let (alg, cap) = (SourceDetection::apsp(fx.g.n()), 4 * fx.g.n());
        let arena = oracle_run::<ArenaBackend, _>(&alg, sim, cap);
        let dense = oracle_run::<DenseBackend, _>(&alg, sim, cap);
        assert_same_run(&dense, &arena, fx.name);
        let counters = |w: &WorkStats| (w.iterations, w.touched_vertices);
        assert_eq!(counters(&dense.work), counters(&arena.work), "{}", fx.name);
    }
}

/// Non-sources start from `⊥`, so a source-masked LE list names sources
/// only.
#[test]
fn source_masked_le_lists_name_only_sources() {
    for fx in fixpoint_family() {
        for mask in [Mask::Singleton, Mask::EveryThird, Mask::WithoutMin] {
            let sources = mask.sources(&fx);
            let le = LeListAlgorithm::new(fx.ranks()).with_sources(&sources);
            let literal = literal_fixpoint(&le, &fx.g, fx.g.n() + 1);
            assert!(
                literal
                    .states
                    .iter()
                    .flat_map(|x| x.iter())
                    .all(|(u, _)| sources.contains(&u)),
                "{}/{mask:?}: an entry names a non-source",
                fx.name
            );
        }
    }
}
