//! The literal references shared by the differential suites. Each suite
//! uses a subset of them.
#![allow(dead_code)]

use metric_tree_embedding::core::engine::{
    initial_states, iterate, iterate_scaled, MbfAlgorithm, MbfRun,
};
use metric_tree_embedding::core::oracle::{Lane, OracleBackend};
use metric_tree_embedding::core::run::run_to_fixpoint_on;
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::prelude::*;

/// The literal fixpoint loop: the one-shot `iterate` kernel from
/// `r^V x⁽⁰⁾` until the first hop that changes nothing, or `cap` hops,
/// counted like `run_to_fixpoint_on`. It shares no schedule, chunking
/// or commit code with the engines, so every backend's states,
/// iteration counts and fixpoint flags are asserted against it.
pub fn literal_fixpoint<A: MbfAlgorithm>(alg: &A, g: &Graph, cap: usize) -> MbfRun<A::M> {
    let mut states = initial_states(alg, g.n());
    let mut work = WorkStats::new();
    let (mut iterations, mut fixpoint) = (0, false);
    while iterations < cap {
        let (next, w) = iterate(alg, g, &states);
        work += w;
        iterations += 1;
        if next == states {
            fixpoint = true;
            break;
        }
        states = next;
    }
    MbfRun {
        states,
        iterations,
        fixpoint,
        work,
    }
}

/// The literal oracle loop, `x ← r^V(⊕_λ P_λ (r^V A_λ)^d P_λ x)`
/// (Section 5): each round projects `x` for every level `λ`, applies the
/// one-shot `iterate_scaled` kernel `d` times on the `λ`-scaled `G'`,
/// folds levels `0..=level(v)` in ascending order and filters; it stops
/// at the first round that changes nothing, or after `h` rounds. It
/// shares no code with the lanes, the carry-over schedule or the level
/// loop, so both lanes' states, round counts and fixpoint flags are
/// asserted against it.
pub fn literal_oracle<A>(alg: &A, sim: &SimulatedGraph, h: usize) -> MbfRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
{
    let (g, levels) = (sim.augmented(), sim.levels());
    let level = |v: usize| levels.level(v as NodeId);
    let mut x = initial_states(alg, g.n());
    let mut work = WorkStats::new();
    let (mut rounds, mut fixpoint) = (0, false);
    while rounds < h {
        let ys: Vec<Vec<A::M>> = (0..=levels.lambda())
            .map(|lambda| {
                let mut y: Vec<A::M> = (0..g.n())
                    .map(|v| {
                        if level(v) >= lambda {
                            x[v].clone()
                        } else {
                            A::M::zero()
                        }
                    })
                    .collect();
                for _ in 0..sim.d() {
                    let (next, w) = iterate_scaled(alg, g, &y, sim.level_scale(lambda));
                    work += w;
                    y = next;
                }
                y
            })
            .collect();
        let next: Vec<A::M> = (0..g.n())
            .map(|v| {
                let mut acc = A::M::zero();
                for y in &ys[..=level(v) as usize] {
                    acc.add_assign(&y[v]);
                }
                alg.filter(&mut acc);
                acc
            })
            .collect();
        rounds += 1;
        if next == x {
            fixpoint = true;
            break;
        }
        x = next;
    }
    MbfRun {
        states: x,
        iterations: rounds,
        fixpoint,
        work,
    }
}

/// The oracle on lane `L`, run to its fixpoint or `cap` rounds.
pub fn oracle_run<L, A>(alg: &A, sim: &SimulatedGraph, cap: usize) -> MbfRun<A::M>
where
    A: MbfAlgorithm<S = MinPlus>,
    L: Lane<A>,
{
    run_to_fixpoint_on(OracleBackend::<_, L>::new(sim), alg, sim.augmented(), cap)
}
