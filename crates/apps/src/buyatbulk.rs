//! Buy-at-bulk network design (Section 10 of the paper,
//! Definition 10.1).
//!
//! Given demands `(s_i, t_i, d_i)` and cable types `(u_j, c_j)` (capacity,
//! cost-per-unit-length), buy cable multiplicities on edges so all demands
//! can be routed simultaneously, minimizing total cost. Hard to
//! approximate better than `log^{1/2−o(1)} n` (Andrews \[4\]); the
//! tree-embedding route (Awerbuch & Azar \[5\], parallelized by Blelloch et
//! al. \[10\]) gives an expected `O(log n)` approximation:
//!
//! 1. embed `G` into a random FRT tree `T`,
//! 2. route every demand on its unique tree path and pick, per tree edge,
//!    the cheapest cable multiset for the aggregated flow (a 2-approximate
//!    single-type choice `min_j c_j·⌈f/u_j⌉` suffices, see \[10\]),
//! 3. map each used tree edge back to a graph path of weight
//!    `≤ 3·ω_T(e)` (Section 7.5) and re-buy cables for the accumulated
//!    per-edge flows in `G` (merging flows only helps: the cost function
//!    is subadditive).

use mte_algebra::NodeId;
use mte_core::frt::paths::embed_tree_edge;
use mte_core::frt::{sample_direct, FrtTree};
use mte_graph::algorithms::sssp;
use mte_graph::Graph;
use rand::Rng;
use std::collections::BTreeMap;

/// A cable type `(u_j, c_j)`: capacity per copy and cost per unit length
/// per copy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CableType {
    /// Capacity `u_j > 0`.
    pub capacity: f64,
    /// Cost `c_j > 0` per unit of edge length.
    pub cost: f64,
}

/// A demand `(s_i, t_i, d_i)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Demand {
    /// Source terminal.
    pub s: NodeId,
    /// Target terminal.
    pub t: NodeId,
    /// Flow amount `d_i ≥ 0`.
    pub amount: f64,
}

/// A buy-at-bulk instance.
#[derive(Clone, Debug)]
pub struct BuyAtBulkInstance {
    /// Available cable types (non-empty).
    pub cables: Vec<CableType>,
    /// The demands.
    pub demands: Vec<Demand>,
}

impl BuyAtBulkInstance {
    /// Cheapest way to carry flow `f` over one unit of length using
    /// multiples of a single cable type: `min_j c_j · ⌈f/u_j⌉`.
    pub fn unit_cost_for_flow(&self, f: f64) -> f64 {
        if f <= 0.0 {
            return 0.0;
        }
        self.cables
            .iter()
            .map(|c| c.cost * (f / c.capacity).ceil())
            .fold(f64::INFINITY, f64::min)
    }

    /// The best (cable type index, multiplicity) for flow `f`.
    pub fn best_cable_for_flow(&self, f: f64) -> Option<(usize, u64)> {
        if f <= 0.0 {
            return None;
        }
        self.cables
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    c.cost * (f / c.capacity).ceil(),
                    i,
                    (f / c.capacity).ceil() as u64,
                )
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, i, mult)| (i, mult))
    }
}

/// A solution: per-edge cable purchases and the total cost.
#[derive(Clone, Debug)]
pub struct BuyAtBulkSolution {
    /// Per graph edge `{u, v}` (u < v): flow routed across it and the
    /// purchased (cable index, multiplicity).
    pub edges: Vec<(NodeId, NodeId, f64, usize, u64)>,
    /// Total cost `Σ_e c_j(e)·mult(e)·ω(e)`.
    pub total_cost: f64,
}

/// Solves buy-at-bulk via a random FRT tree (Theorem 10.2). The tree is
/// sampled from the exact metric of `G` (the `Õ(SPD)`-depth sampler);
/// callers wanting the polylog-depth pipeline can pre-sample with
/// [`mte_core::frt::FrtEmbedding`] and pass its `tree()` to
/// [`solve_on_tree`].
pub fn solve_buy_at_bulk(
    g: &Graph,
    instance: &BuyAtBulkInstance,
    rng: &mut impl Rng,
) -> BuyAtBulkSolution {
    solve_on_tree(g, instance, &sample_direct(g, rng).tree)
}

/// Steps (2)–(3) on an already-sampled tree.
pub fn solve_on_tree(g: &Graph, instance: &BuyAtBulkInstance, tree: &FrtTree) -> BuyAtBulkSolution {
    assert!(!instance.cables.is_empty(), "need at least one cable type");

    // (2) Aggregate per-tree-edge flow: climb both endpoints to the LCA.
    // tree_flow[child node index] = flow over the edge (child → parent).
    // Ordered maps here and below: the float accumulation order (and so
    // the bit pattern of `total_cost`) follows map iteration order.
    let mut tree_flow: BTreeMap<usize, f64> = BTreeMap::new();
    for d in &instance.demands {
        assert!(d.amount >= 0.0 && d.amount.is_finite());
        if d.amount == 0.0 || d.s == d.t {
            continue;
        }
        let (mut a, mut b) = (tree.leaf(d.s), tree.leaf(d.t));
        while a != b {
            // Leaves sit at equal depth; climb in lockstep.
            *tree_flow.entry(a).or_insert(0.0) += d.amount;
            *tree_flow.entry(b).or_insert(0.0) += d.amount;
            a = tree.nodes()[a].parent;
            b = tree.nodes()[b].parent;
        }
    }

    // (3) Map used tree edges back to graph paths, accumulating per-edge
    // flow in G.
    let mut edge_flow: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
    for (&child, &flow) in &tree_flow {
        let embedded = embed_tree_edge(g, tree, child);
        for hop in embedded.path.windows(2) {
            let (u, v) = (hop[0].min(hop[1]), hop[0].max(hop[1]));
            if u != v {
                *edge_flow.entry((u, v)).or_insert(0.0) += flow;
            }
        }
    }

    // Buy cables per graph edge.
    let mut edges = Vec::with_capacity(edge_flow.len());
    let mut total_cost = 0.0;
    for ((u, v), flow) in edge_flow {
        let (cable, mult) = instance
            .best_cable_for_flow(flow)
            .expect("positive flow always gets a cable");
        let length = g.weight(u, v).expect("embedded paths follow G edges");
        total_cost += instance.cables[cable].cost * mult as f64 * length;
        edges.push((u, v, flow, cable, mult));
    }
    edges.sort_unstable_by_key(|a| (a.0, a.1));
    BuyAtBulkSolution { edges, total_cost }
}

/// Baseline: route every demand alone on its shortest path with its own
/// cheapest cable choice (no sharing). An upper bound any aggregating
/// algorithm should beat on trunk-heavy instances.
pub fn direct_routing_cost(g: &Graph, instance: &BuyAtBulkInstance) -> f64 {
    let mut total = 0.0;
    for d in &instance.demands {
        if d.amount <= 0.0 || d.s == d.t {
            continue;
        }
        let dist = sssp(g, d.s).dist(d.t).value();
        total += instance.unit_cost_for_flow(d.amount) * dist;
    }
    total
}

/// A valid lower bound on any solution's cost:
/// `max( Σ_i d_i·dist(s_i,t_i)·min_j(c_j/u_j),  max_i lb(i) )` where
/// `lb(i)` is the cheapest conceivable routing of demand `i` alone.
pub fn lower_bound(g: &Graph, instance: &BuyAtBulkInstance) -> f64 {
    let min_rate = instance
        .cables
        .iter()
        .map(|c| c.cost / c.capacity)
        .fold(f64::INFINITY, f64::min);
    let min_cable_cost = instance
        .cables
        .iter()
        .map(|c| c.cost)
        .fold(f64::INFINITY, f64::min);
    let mut volume_lb = 0.0;
    let mut single_lb: f64 = 0.0;
    for d in &instance.demands {
        if d.amount <= 0.0 || d.s == d.t {
            continue;
        }
        let dist = sssp(g, d.s).dist(d.t).value();
        volume_lb += d.amount * dist * min_rate;
        single_lb = single_lb.max(dist * min_cable_cost.max(d.amount * min_rate));
    }
    volume_lb.max(single_lb)
}

/// Verifies that a solution's purchased capacities support routing all
/// demands along the flows it declared (feasibility check used in tests
/// and examples).
pub fn is_feasible(instance: &BuyAtBulkInstance, solution: &BuyAtBulkSolution) -> bool {
    solution.edges.iter().all(|&(_, _, flow, cable, mult)| {
        instance.cables[cable].capacity * mult as f64 >= flow - 1e-9
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_core::frt::{FrtConfig, FrtEmbedding};
    use mte_graph::generators::{gnm_graph, grid_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn economies_of_scale_cables() -> Vec<CableType> {
        vec![
            CableType {
                capacity: 1.0,
                cost: 1.0,
            },
            CableType {
                capacity: 10.0,
                cost: 4.0,
            },
            CableType {
                capacity: 100.0,
                cost: 12.0,
            },
        ]
    }

    /// Twelve demands `i → i + 13` of growing amount, for graphs of at
    /// least 25 nodes.
    fn staggered_instance() -> BuyAtBulkInstance {
        BuyAtBulkInstance {
            cables: economies_of_scale_cables(),
            demands: (0..12)
                .map(|i| Demand {
                    s: i as NodeId,
                    t: (i + 13) as NodeId,
                    amount: 1.0 + i as f64,
                })
                .collect(),
        }
    }

    #[test]
    fn unit_cost_prefers_bulk_cables() {
        let inst = BuyAtBulkInstance {
            cables: economies_of_scale_cables(),
            demands: vec![],
        };
        assert_eq!(inst.unit_cost_for_flow(1.0), 1.0);
        assert_eq!(inst.unit_cost_for_flow(5.0), 4.0); // one 10-cable beats five 1-cables
        assert_eq!(inst.unit_cost_for_flow(0.0), 0.0);
        assert_eq!(inst.unit_cost_for_flow(50.0), 12.0); // one 100-cable
    }

    #[test]
    fn empty_demands_cost_nothing() {
        let g = path_graph(4, 1.0);
        let inst = BuyAtBulkInstance {
            cables: economies_of_scale_cables(),
            demands: vec![],
        };
        let mut rng = StdRng::seed_from_u64(121);
        let sol = solve_buy_at_bulk(&g, &inst, &mut rng);
        assert_eq!(sol.total_cost, 0.0);
        assert!(sol.edges.is_empty());
    }

    #[test]
    fn solution_is_feasible_and_above_lower_bound() {
        let mut rng = StdRng::seed_from_u64(122);
        let g = gnm_graph(40, 90, 1.0..6.0, &mut rng);
        let inst = staggered_instance();
        let sol = solve_buy_at_bulk(&g, &inst, &mut rng);
        assert!(is_feasible(&inst, &sol));
        let lb = lower_bound(&g, &inst);
        assert!(sol.total_cost >= lb - 1e-9, "cost below the lower bound?!");
        // Expected O(log n) approximation; generous constant for one sample.
        assert!(
            sol.total_cost <= 20.0 * (g.n() as f64).log2() * lb,
            "cost {} vs lower bound {lb}",
            sol.total_cost
        );
    }

    #[test]
    fn solve_on_tree_accepts_a_pipeline_tree() {
        // The polylog-depth route of `solve_buy_at_bulk`'s doc: sample
        // through the oracle pipeline, then route on its tree.
        let mut rng = StdRng::seed_from_u64(125);
        let g = gnm_graph(40, 90, 1.0..6.0, &mut rng);
        let inst = staggered_instance();
        let emb = FrtEmbedding::sample(&g, &FrtConfig::default(), &mut rng);
        let sol = solve_on_tree(&g, &inst, emb.tree());
        assert!(is_feasible(&inst, &sol));
        assert!(sol.total_cost >= lower_bound(&g, &inst) - 1e-9);
    }

    #[test]
    fn aggregation_beats_direct_routing_on_trunk_instances() {
        // Many unit demands crossing the same long trunk: sharing a bulk
        // cable is much cheaper than per-demand unit cables. Compare the
        // best of a few samples (the guarantee is in expectation).
        let g = path_graph(40, 1.0);
        let demands: Vec<Demand> = (0..16)
            .map(|i| Demand {
                s: (i % 4) as NodeId,
                t: (39 - (i % 4)) as NodeId,
                amount: 1.0,
            })
            .collect();
        let inst = BuyAtBulkInstance {
            cables: vec![
                CableType {
                    capacity: 1.0,
                    cost: 1.0,
                },
                CableType {
                    capacity: 20.0,
                    cost: 2.0,
                },
            ],
            demands,
        };
        let direct = direct_routing_cost(&g, &inst);
        let best = (0..5)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(600 + seed);
                solve_buy_at_bulk(&g, &inst, &mut rng).total_cost
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < direct,
            "aggregated {best} should beat per-demand routing {direct}"
        );
    }

    #[test]
    fn single_demand_on_grid_is_near_shortest_path() {
        let mut rng = StdRng::seed_from_u64(123);
        let g = grid_graph(5, 5, 1.0..2.0, &mut rng);
        let inst = BuyAtBulkInstance {
            cables: vec![CableType {
                capacity: 1.0,
                cost: 1.0,
            }],
            demands: vec![Demand {
                s: 0,
                t: 24,
                amount: 1.0,
            }],
        };
        let direct = direct_routing_cost(&g, &inst);
        // Average over trees: expected O(log n)·direct.
        let trials = 6;
        let mut total = 0.0;
        for seed in 0..trials {
            let mut rng2 = StdRng::seed_from_u64(700 + seed);
            total += solve_buy_at_bulk(&g, &inst, &mut rng2).total_cost;
        }
        let avg = total / trials as f64;
        assert!(avg >= direct - 1e-9);
        assert!(avg <= 16.0 * (g.n() as f64).log2() * direct);
    }

    #[test]
    fn self_demands_are_ignored() {
        let g = path_graph(4, 1.0);
        let inst = BuyAtBulkInstance {
            cables: economies_of_scale_cables(),
            demands: vec![Demand {
                s: 2,
                t: 2,
                amount: 5.0,
            }],
        };
        let mut rng = StdRng::seed_from_u64(124);
        let sol = solve_buy_at_bulk(&g, &inst, &mut rng);
        assert_eq!(sol.total_cost, 0.0);
    }
}
