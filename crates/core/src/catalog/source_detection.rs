//! Source detection (Example 3.2, after Lenzen & Peleg \[32\]) and the
//! classic distance problems it generalizes (Examples 3.3–3.6).
//!
//! `(S, h, d, k)`-source detection: every node determines the `k`
//! lexicographically smallest pairs `(dist^h(v, s), s)` over sources
//! `s ∈ S` with `dist(v, s) ≤ d`.

use crate::arena::{with_arena_acc, ArenaMbfAlgorithm, Incoming, RecomputeCtx, SpanRecompute};
use crate::dense::DenseMbfAlgorithm;
use crate::engine::MbfAlgorithm;
use mte_algebra::store::{EpochStore, SpanOut};
use mte_algebra::{Dist, DistanceMap, Filter, MinPlus, NodeId};
use mte_graph::Graph;

/// The `(S, h, d, k)`-source-detection MBF-like algorithm over the
/// min-plus semiring and the distance-map semimodule (Example 3.2).
/// The hop budget `h` is supplied when running the algorithm.
#[derive(Clone, Debug)]
pub struct SourceDetection {
    is_source: Vec<bool>,
    k: usize,
    max_dist: Dist,
}

impl SourceDetection {
    /// General constructor: sources `S`, result limit `k`, distance
    /// limit `d`.
    pub fn new(n: usize, sources: &[NodeId], k: usize, max_dist: Dist) -> Self {
        let mut is_source = vec![false; n];
        for &s in sources {
            is_source[s as usize] = true;
        }
        SourceDetection {
            is_source,
            k,
            max_dist,
        }
    }

    /// All nodes as sources.
    fn all_sources(n: usize, k: usize, max_dist: Dist) -> Self {
        SourceDetection {
            is_source: vec![true; n],
            k,
            max_dist,
        }
    }

    /// APSP = `(V, h, ∞, n)`-source detection (Example 3.5).
    pub fn apsp(n: usize) -> Self {
        Self::all_sources(n, n, Dist::INF)
    }

    /// k-SSP = `(V, h, ∞, k)`-source detection (Example 3.4).
    pub fn k_ssp(n: usize, k: usize) -> Self {
        Self::all_sources(n, k, Dist::INF)
    }

    /// MSSP = `(S, h, ∞, |S|)`-source detection (Example 3.6).
    pub fn mssp(n: usize, sources: &[NodeId]) -> Self {
        Self::new(n, sources, sources.len().max(1), Dist::INF)
    }

    /// SSSP = `({s}, h, ∞, 1)`-source detection (Example 3.3).
    pub fn sssp(n: usize, s: NodeId) -> Self {
        Self::new(n, &[s], 1, Dist::INF)
    }

    /// The representative projection of Equation (3.4): keep an entry
    /// `(s, x_s)` iff `s ∈ S`, `x_s ≤ d`, and `(x_s, s)` is among the `k`
    /// lexicographically smallest such pairs.
    fn project(&self, x: &mut DistanceMap) {
        x.retain(|v, d| self.is_source[v as usize] && d <= self.max_dist);
        if x.len() > self.k {
            // Select the k smallest (dist, node) pairs inside the map's
            // own buffer; `edit_entries` restores node order afterwards.
            let k = self.k;
            x.edit_entries(|entries| {
                entries.sort_unstable_by_key(|&(v, d)| (d, v));
                entries.truncate(k);
            });
        }
    }

    /// The merge-time admission threshold of the top-k filter: the k-th
    /// smallest `(dist, node)` pair of `v`'s own filtered list (`None`
    /// while the list holds fewer than `k` entries). A filtered list
    /// never exceeds `k` entries, so this is simply its lexicographic
    /// maximum — an `O(k)` scan of the base list, paid once per
    /// recompute.
    ///
    /// Rejection against it is lossless: the base list's keys all
    /// survive the merge (`a_vv = 1`) and min-combining only ever
    /// *lowers* their pairs, so an absent incoming pair above the
    /// threshold is outranked by `k` persisting pairs and can never
    /// enter the filter's top k — and the top-k filter discards
    /// non-survivors independently, so dropping one cannot rescue or
    /// doom another.
    fn admission_threshold(&self, base: &DistanceMap) -> Option<(Dist, NodeId)> {
        if base.len() >= self.k {
            base.iter().map(|(u, d)| (d, u)).max()
        } else {
            None
        }
    }

    /// The admission predicate of the pruned arena recompute: sources
    /// only, within the distance limit, below the top-k threshold.
    /// Counts admitted entries in `admitted`.
    #[inline]
    fn admit(
        &self,
        threshold: Option<(Dist, NodeId)>,
        u: NodeId,
        d: Dist,
        admitted: &mut u64,
    ) -> bool {
        let ok = self.is_source[u as usize]
            && d <= self.max_dist
            && threshold.is_none_or(|t| (d, u) < t);
        if ok {
            *admitted += 1;
        }
        ok
    }
}

impl MbfAlgorithm for SourceDetection {
    type S = MinPlus;
    type M = DistanceMap;

    #[inline]
    fn edge_coeff(&self, _v: NodeId, _w: NodeId, weight: f64) -> MinPlus {
        MinPlus::new(weight)
    }

    fn filter(&self, x: &mut DistanceMap) {
        self.project(x);
    }

    fn init(&self, v: NodeId) -> DistanceMap {
        if self.is_source[v as usize] {
            DistanceMap::singleton(v, Dist::ZERO)
        } else {
            DistanceMap::new()
        }
    }

    #[inline]
    fn propagate_into(&self, acc: &mut DistanceMap, state: &DistanceMap, coeff: &MinPlus) {
        acc.merge_scaled(state, coeff.0);
    }

    #[inline]
    fn state_size(&self, x: &DistanceMap) -> usize {
        x.len().max(1)
    }
}

impl ArenaMbfAlgorithm for SourceDetection {
    /// Top-k-pruned recomputation through the admission-predicate merge
    /// kernel, reading base and neighbor states as borrowed spans: an
    /// incoming entry absent from the accumulator is admitted only if it
    /// is a source within the distance limit whose `(dist, node)` pair
    /// beats the k-th smallest pair of `v`'s own list — everything else
    /// the filter would discard anyway, so `r(pruned merge) = r(full
    /// merge)` bit for bit (collisions always combine; see
    /// `SourceDetection::admission_threshold` for the losslessness
    /// argument). `entries_processed` counts `|x_v|` plus only the
    /// **admitted** entries (see [`crate::work::WorkStats`]).
    ///
    /// Additionally skips **clean** neighbors (nothing to absorb — see
    /// [`RecomputeCtx::incoming`]): the top-k filter is
    /// absorption-stable. Entry values only improve under min-merging,
    /// a key the filter ever truncated was outranked by `k` pairs that
    /// persist and only improve, and the source/distance-limit
    /// predicates are static — so every entry of an already-absorbed
    /// contribution is either an identity collision or rejected by the
    /// admission threshold, and skipping the whole merge is
    /// bit-identical (differential-tested against the literal loop,
    /// which merges every neighbor). Dirty neighbors hand over their
    /// whole state: source detection does not opt into the semi-naive
    /// delta ([`ArenaMbfAlgorithm::SEMI_NAIVE`]).
    fn recompute_span(
        &self,
        v: NodeId,
        g: &Graph,
        weight_scale: f64,
        states: &EpochStore,
        ctx: &RecomputeCtx<'_>,
        out: &mut SpanOut<'_>,
    ) -> SpanRecompute {
        with_arena_acc(|acc| {
            let base = states.get(v);
            acc.assign_from_entries(base.entries);
            let threshold = self.admission_threshold(acc);
            let full = ctx.require_full(v);
            let mut entries = base.len().max(1) as u64;
            let mut admitted = 0u64;
            let mut relaxations = 0u64;
            let mut handover_entries = 0u64;
            for &(w, ew) in g.neighbors(v) {
                let Some(Incoming {
                    entries: incoming, ..
                }) = ctx.incoming(full, w, states)
                else {
                    continue; // already absorbed: provably an identity
                };
                let coeff = self.edge_coeff(v, w, ew * weight_scale);
                relaxations += 1;
                handover_entries += incoming.len() as u64;
                acc.merge_scaled_pruned_entries(incoming, coeff.0, &mut |u, d| {
                    self.admit(threshold, u, d, &mut admitted)
                });
            }
            entries += admitted;
            self.filter(acc);
            for (u, d) in acc.iter() {
                out.push(u, d, 0);
            }
            SpanRecompute {
                entries,
                relaxations,
                handover_entries,
                unchanged_hint: false,
            }
        })
    }
}

impl DenseMbfAlgorithm for SourceDetection {
    /// The filter of Equation (3.4) is the identity exactly when it
    /// masks nothing and truncates nothing: every node is a source, the
    /// distance limit is `∞`, and `k ≥ n` (a state never holds more
    /// than `n` entries). APSP qualifies; k-SSP with `k < n`, MSSP and
    /// a finite limit do not.
    fn advertises_dense(&self) -> bool {
        self.max_dist == Dist::INF
            && self.k >= self.is_source.len()
            && self.is_source.iter().all(|&s| s)
    }
}

/// The filter of Equation (3.4) as a standalone [`Filter`], so the
/// congruence laws (Lemma 2.8 / Appendix B) can be property-tested.
#[derive(Clone, Debug)]
pub struct SourceDetectionFilter(pub SourceDetection);

impl Filter<MinPlus, DistanceMap> for SourceDetectionFilter {
    fn apply(&self, x: &mut DistanceMap) {
        self.0.project(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, run_to_fixpoint};
    use mte_graph::algorithms::{sssp, sssp_hop_limited};
    use mte_graph::generators::{gnm_graph, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sssp_matches_dijkstra() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnm_graph(50, 120, 1.0..9.0, &mut rng);
        let alg = SourceDetection::sssp(g.n(), 7);
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        assert!(res.fixpoint);
        let exact = sssp(&g, 7);
        for v in 0..g.n() as NodeId {
            assert_eq!(res.states[v as usize].get(7), exact.dist(v));
        }
    }

    #[test]
    fn apsp_matches_dijkstra_all_pairs() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnm_graph(25, 60, 1.0..5.0, &mut rng);
        let alg = SourceDetection::apsp(g.n());
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        for s in 0..g.n() as NodeId {
            let exact = sssp(&g, s);
            for v in 0..g.n() as NodeId {
                assert_eq!(
                    res.states[v as usize].get(s),
                    exact.dist(v),
                    "pair ({s},{v})"
                );
            }
        }
    }

    #[test]
    fn h_iterations_give_h_hop_distances() {
        // Lemma 3.1: x^{(h)}_{vw} = dist^h(v, w, G).
        let mut rng = StdRng::seed_from_u64(3);
        let g = gnm_graph(30, 70, 1.0..5.0, &mut rng);
        let h = 3;
        let alg = SourceDetection::apsp(g.n());
        let res = run(&alg, &g, h);
        for s in 0..g.n() as NodeId {
            let limited = sssp_hop_limited(&g, s, h);
            for v in 0..g.n() {
                assert_eq!(res.states[v].get(s), limited[v], "h-hop pair ({s},{v})");
            }
        }
    }

    #[test]
    fn k_ssp_keeps_k_closest() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gnm_graph(40, 90, 1.0..7.0, &mut rng);
        let k = 4;
        let alg = SourceDetection::k_ssp(g.n(), k);
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        for v in 0..g.n() as NodeId {
            // Reference: k smallest (dist, node) pairs by full Dijkstra.
            let mut pairs: Vec<(Dist, NodeId)> = (0..g.n() as NodeId)
                .map(|s| (sssp(&g, s).dist(v), s))
                .collect();
            pairs.sort_unstable();
            pairs.truncate(k);
            let got = &res.states[v as usize];
            assert_eq!(got.len(), k);
            for (d, s) in pairs {
                assert_eq!(got.get(s), d);
            }
        }
    }

    #[test]
    fn mssp_restricted_to_sources() {
        let g = path_graph(6, 1.0);
        let sources = [0 as NodeId, 5];
        let alg = SourceDetection::mssp(g.n(), &sources);
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        let x = &res.states[2];
        assert_eq!(x.get(0), Dist::new(2.0));
        assert_eq!(x.get(5), Dist::new(3.0));
        assert_eq!(x.get(3), Dist::INF); // 3 is not a source
    }

    #[test]
    fn distance_limit_is_respected() {
        let g = path_graph(5, 1.0);
        let alg = SourceDetection::new(g.n(), &[0], 1, Dist::new(2.0));
        let res = run_to_fixpoint(&alg, &g, g.n() + 1);
        assert_eq!(res.states[2].get(0), Dist::new(2.0));
        assert!(res.states[3].is_empty()); // dist 3 > limit 2
    }
}
