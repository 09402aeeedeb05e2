//! The embedding phase: graph → (spanner) → hop set and `H` → LE lists →
//! FRT tree → frozen, encoded artifact, one stage at a time.
//!
//! The stages are the ones `FrtEmbedding::sample` (or `sample_direct`)
//! runs, called in the same order on the same random stream, so the tree
//! is bit-identical to the library's own sampler; the tests pin that.
//! Each stage is timed from outside, by wrapping its public call.

use crate::trace::Tracer;
use crate::workload::{tree_seed, LeStage, Setup, Workload};
use mte_core::frt::{le_lists_direct, le_lists_oracle, FrtTree, LeList, Ranks};
use mte_core::simgraph::SimulatedGraph;
use mte_core::work::WorkStats;
use mte_graph::spanner::baswana_sen_spanner;
use mte_serving::{Oracle, OracleArtifact, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Deterministic outputs of one tree: equal bit for bit across runs and
/// thread counts for the same seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeCounters {
    /// Spanner edges kept / input edges (0 without a spanner).
    pub spanner_kept_ratio: f64,
    pub shortcut_edges: u64,
    pub hop_budget_d: u64,
    pub lambda: u64,
    /// Oracle `H`-iterations, or direct iterations on `G`.
    pub iterations: u64,
    /// `iterations × d` for the oracle (E16's depth proxy), `iterations`
    /// for direct iteration.
    pub depth_rounds: u64,
    pub work: WorkStats,
    /// Σ |LE list| over all vertices.
    pub list_entries: u64,
    pub tree_nodes: u64,
    pub tree_levels: u64,
    pub artifact_bytes: u64,
    /// Mean dist_T / dist_G over the fixed pair sample.
    pub stretch_mean: f64,
}

/// One built tree.
pub struct Built {
    pub counters: TreeCounters,
    /// Graph → encoded artifact, in seconds.
    pub embed_s: f64,
    pub tree: FrtTree,
    pub bytes: Vec<u8>,
}

/// The LE-list and tree stages, as `FrtEmbedding::sample` /
/// `sample_direct` run them.
fn stages(
    w: &Workload,
    setup: &Setup,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    parent: u64,
    key: u64,
) -> (FrtTree, Vec<LeList>, Ranks, TreeCounters) {
    let g = &setup.graph;
    let mut c = TreeCounters::default();
    let timed = |tracer: &mut Tracer, name: &'static str, t0: Instant| {
        let t1 = Instant::now();
        tracer.record(name, parent, key, t0, t1);
        t1
    };
    let t = Instant::now();
    let (lists, ranks, beta, omega_min, t) = match &w.le {
        LeStage::Oracle { hopset, eps_hat } => {
            let spanner;
            let (input, t) = match w.spanner_k {
                Some(k) if k > 1 => {
                    spanner = baswana_sen_spanner(g, k, rng);
                    c.spanner_kept_ratio = spanner.m() as f64 / g.m() as f64;
                    (&spanner, timed(tracer, "spanner", t))
                }
                _ => (g, t),
            };
            let sim = SimulatedGraph::build(input, hopset, *eps_hat, rng);
            let t = timed(tracer, "simgraph", t);
            c.shortcut_edges = (sim.augmented().m() - sim.base().m()) as u64;
            c.hop_budget_d = sim.d() as u64;
            c.lambda = u64::from(sim.levels().lambda());
            let ranks = Arc::new(Ranks::sample(g.n(), rng));
            let beta = rng.gen_range(1.0..2.0);
            let t = timed(tracer, "ranks", t);
            let (lists, h, work) = le_lists_oracle(&sim, &ranks, None);
            let t = timed(tracer, "oracle", t);
            c.iterations = h as u64;
            c.depth_rounds = (h * sim.d()) as u64;
            c.work = work;
            (lists, ranks, beta, sim.base().min_weight(), t)
        }
        LeStage::Direct => {
            let ranks = Arc::new(Ranks::sample(g.n(), rng));
            let beta = rng.gen_range(1.0..2.0);
            let t = timed(tracer, "ranks", t);
            let (lists, iterations, work) = le_lists_direct(g, &ranks);
            let t = timed(tracer, "le_direct", t);
            c.iterations = iterations as u64;
            c.depth_rounds = iterations as u64;
            c.work = work;
            (lists, ranks, beta, g.min_weight(), t)
        }
    };
    let tree = FrtTree::from_le_lists(&lists, &ranks, beta, omega_min);
    timed(tracer, "tree", t);
    c.list_entries = lists.iter().map(|l| l.len() as u64).sum();
    c.tree_nodes = tree.len() as u64;
    c.tree_levels = tree.num_levels() as u64;
    let ranks = Arc::try_unwrap(ranks).unwrap_or_else(|shared| Ranks::clone(&shared));
    (tree, lists, ranks, c)
}

/// Pairs of the stretch sample also asked through a reloaded oracle.
const ROUND_TRIP_PAIRS: usize = 64;

/// Builds tree `index` of the run, then checks it: dominance
/// dist_T ≥ dist_G on the pair sample, and an `encode` → `Oracle::load`
/// round trip that must answer and re-encode bit-identically. Returns the
/// tree (if it could be frozen) and the number of failed checks.
pub fn build_tree(
    w: &Workload,
    setup: &Setup,
    index: u64,
    tracer: &mut Tracer,
) -> (Option<Built>, u64) {
    let root = tracer.reserve();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(tree_seed(index));
    let (tree, lists, ranks, mut counters) = stages(w, setup, &mut rng, tracer, root, index);
    let t = Instant::now();
    let Ok(artifact) = OracleArtifact::from_parts(lists, ranks, tree) else {
        return (None, 1);
    };
    let t1 = Instant::now();
    tracer.record("artifact.freeze", root, index, t, t1);
    let bytes = artifact.encode();
    let end = Instant::now();
    tracer.record("artifact.encode", root, index, t1, end);
    tracer.record_as(root, "embed", 0, index, t0, end);

    let tree = artifact.tree();
    let mut failed = 0;
    let mut stretch = 0.0;
    for &(u, v, dg) in &setup.sample {
        let dt = tree.leaf_distance(u, v);
        let dominates = dt >= dg * (1.0 - 1e-9);
        failed += u64::from(!dominates);
        stretch += dt / dg;
    }
    counters.stretch_mean = stretch / setup.sample.len() as f64;
    counters.artifact_bytes = bytes.len() as u64;
    match Oracle::load(&bytes, ServeConfig::default()) {
        Ok(oracle) => {
            if oracle.artifact().encode() != bytes {
                failed += 1;
            }
            for &(u, v, _) in setup.sample.iter().take(ROUND_TRIP_PAIRS) {
                let same = oracle.distance(u, v).is_ok_and(|a| {
                    a.exact && a.value.to_bits() == tree.leaf_distance(u, v).to_bits()
                });
                failed += u64::from(!same);
            }
        }
        Err(_) => failed += 1,
    }
    let built = Built {
        counters,
        embed_s: (end - t0).as_secs_f64(),
        tree: tree.clone(),
        bytes,
    };
    (Some(built), failed)
}

/// Tree `index` of a run, as its first round built it.
pub type Indexed = (u64, Built);

/// Check tallies of the embedding phase over all rounds.
pub struct EmbedPhase {
    pub attempted: u64,
    pub failed: u64,
}

impl EmbedPhase {
    /// The first round: one warm-up tree (checked, not timed), then
    /// `trees` timed trees.
    pub fn first(
        w: &Workload,
        setup: &Setup,
        trees: usize,
        tracer: &mut Tracer,
    ) -> (EmbedPhase, Vec<Indexed>) {
        let mut first = Vec::with_capacity(trees);
        let mut phase = EmbedPhase {
            attempted: 0,
            failed: 0,
        };
        for index in 0..=trees as u64 {
            let (built, failed) = build_tree(w, setup, index, tracer);
            phase.attempted += 1;
            phase.failed += u64::from(failed > 0 || built.is_none());
            first.extend(built.filter(|_| index > 0).map(|b| (index, b)));
        }
        (phase, first)
    }

    /// A later round: rebuilds every tree of the first round, which must
    /// reproduce its counters and artifact bytes exactly. Returns each
    /// rebuild's time in seconds.
    pub fn repeat(
        &mut self,
        first: &[Indexed],
        w: &Workload,
        setup: &Setup,
        tracer: &mut Tracer,
    ) -> Vec<f64> {
        let mut times = Vec::with_capacity(first.len());
        for (index, built) in first {
            let (again, failed) = build_tree(w, setup, *index, tracer);
            self.attempted += 1;
            let same = again
                .as_ref()
                .is_some_and(|a| a.counters == built.counters && a.bytes == built.bytes);
            self.failed += u64::from(failed > 0 || !same);
            times.extend(again.map(|a| a.embed_s));
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{GraphSpec, WORKLOADS};
    use mte_core::frt::{sample_direct, FrtConfig, FrtEmbedding};
    use mte_graph::hopset::HopsetConfig;
    use std::time::Instant;

    /// Each workload's pipeline at a smaller size.
    fn small(w: &Workload) -> Workload {
        let mut w = w.clone();
        w.graph = match w.graph {
            GraphSpec::Highway { .. } => GraphSpec::Highway {
                spine: 64,
                hub_weight: 1e4,
            },
            GraphSpec::Gnm { max_weight, .. } => GraphSpec::Gnm {
                n: 120,
                m: 900,
                max_weight,
            },
        };
        if let LeStage::Oracle { eps_hat, .. } = w.le.clone() {
            w.le = LeStage::Oracle {
                hopset: HopsetConfig {
                    d: 15,
                    epsilon: 0.0,
                    oversample: 1.0,
                },
                eps_hat,
            };
        }
        w
    }

    #[test]
    fn staged_pipeline_is_bit_identical_to_the_library_sampler() {
        for w in WORKLOADS.iter().map(small) {
            let setup = Setup::build(&w, 7);
            let mut tracer = Tracer::new(Instant::now(), 0, true, usize::MAX);
            let (built, failed) = build_tree(&w, &setup, 3, &mut tracer);
            let built = built.expect("tree freezes");
            assert_eq!(failed, 0, "{}", w.name);

            let mut rng = StdRng::seed_from_u64(tree_seed(3));
            let (tree, work, iterations) = match w.le.clone() {
                LeStage::Oracle { hopset, eps_hat } => {
                    let config = FrtConfig {
                        hopset,
                        eps_hat,
                        spanner_k: w.spanner_k,
                        max_iterations: None,
                    };
                    let emb = FrtEmbedding::sample(&setup.graph, &config, &mut rng);
                    (emb.tree().clone(), emb.work(), emb.h_iterations())
                }
                LeStage::Direct => {
                    let s = sample_direct(&setup.graph, &mut rng);
                    (s.tree, s.work, s.iterations)
                }
            };
            assert_eq!(built.counters.work, work, "{}", w.name);
            assert_eq!(built.counters.iterations, iterations as u64, "{}", w.name);
            assert_eq!(built.tree.len(), tree.len(), "{}", w.name);
            let n = setup.graph.n() as u32;
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(
                        built.tree.leaf_distance(u, v).to_bits(),
                        tree.leaf_distance(u, v).to_bits(),
                        "{}: ({u}, {v})",
                        w.name
                    );
                }
            }
            let (spans, _) = tracer.into_parts();
            assert!(spans.iter().any(|s| s.name == "embed" && s.parent == 0));
            assert!(spans.iter().any(|s| s.name == "tree"));
        }
    }
}
