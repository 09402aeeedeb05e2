//! The resilience front-end: admission control, the guarded panic
//! boundary, and the [`Oracle`] that walks the answer ladder.
//!
//! Three layers wrap every query:
//!
//! - **Admission** — a bounded in-flight count, sharded so clients on
//!   different threads write different cache lines; arrivals beyond the
//!   capacity are shed immediately with a typed
//!   [`ServeError::Overloaded`], never queued unboundedly.
//! - **Guard** — the query body runs under `catch_unwind` plus a
//!   post-query audit of the fault registry's fired log, the same
//!   containment the pipeline's `run_guarded` uses: an injected panic
//!   becomes [`ServeError::InjectedFault`], any other panic becomes
//!   [`ServeError::Panicked`]. Nothing unwinds past the oracle. The
//!   audit reads only fires recorded on the query's own thread: a query
//!   runs entirely on its caller's thread (serving starts no pool
//!   work), so a fault another client's query fired meanwhile is not
//!   this query's.
//! - **Ladder** — the deadline-governed rung walk documented in
//!   [`crate::query`].

use crate::artifact::OracleArtifact;
use crate::batch::{batch_tree_distances, CancelToken, BATCH_BUDGET_PER_SOURCE};
use crate::error::ServeError;
use crate::query::{
    intersection_cost, list_intersection_metered, tree_climb_bound, tree_distance_metered,
    truncated_upper_bound, Answer, Meter, Rung, ServeDegradation,
};
use mte_faults::{decode_panic, fired_serial, first_unhandled_on_thread_since, CaughtPanic};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Serving knobs. The defaults are generous enough that every rung is
/// affordable on the benchmark graphs; tests shrink them to force
/// ladder falls and shedding deterministically.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Work-unit budget per point query.
    pub query_budget: u64,
    /// Admission capacity: maximum queries in flight at once. It is
    /// split across the admission shards; the total bound is unchanged.
    pub max_in_flight: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            query_budget: 4096,
            max_in_flight: 256,
        }
    }
}

/// Admission shards. Each holds a fixed share of the capacity, so the
/// shards' loads sum to at most `max_in_flight` at every instant.
const SHARDS: usize = 16;

/// One admission shard: a bounded counter on its own cache-line pair,
/// so clients with different home shards write different lines.
#[derive(Debug)]
#[repr(align(128))]
struct Shard {
    in_flight: AtomicU32,
    capacity: u32,
}

impl Shard {
    /// Takes a slot unless the shard is at its capacity.
    fn try_acquire(&self) -> bool {
        self.in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .is_ok()
    }
}

/// Bounded in-flight admission, sharded. Every query writes one shard:
/// its thread's home shard while that has room, else the first other
/// shard with room. A query is shed only after every shard was seen
/// full. Each shard stops at its share, so the bound is exact.
#[derive(Debug)]
struct Admission {
    shards: Box<[Shard]>,
    capacity: u32,
}

/// RAII in-flight slot on one shard; releases on drop, panic or not.
struct Permit<'a> {
    shard: &'a Shard,
}

/// This thread's home shard, dealt once per thread round-robin.
fn home_shard() -> usize {
    // A ticket that publishes no data; `AcqRel` rather than `Relaxed`
    // keeps this file off the hygiene rule's allowlist for a write made
    // once per thread.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT.fetch_add(1, Ordering::AcqRel) % SHARDS;
    }
    HOME.with(|home| *home)
}

impl Admission {
    fn new(capacity: u32) -> Admission {
        let (share, extra) = (capacity / SHARDS as u32, capacity % SHARDS as u32);
        Admission {
            shards: (0..SHARDS as u32)
                .map(|i| Shard {
                    in_flight: AtomicU32::new(0),
                    capacity: share + u32::from(i < extra),
                })
                .collect(),
            capacity,
        }
    }

    fn admit(&self) -> Result<Permit<'_>, ServeError> {
        let home = home_shard();
        let (before, from_home) = self.shards.split_at(home);
        match from_home.iter().chain(before).find(|s| s.try_acquire()) {
            Some(shard) => Ok(Permit { shard }),
            None => Err(ServeError::Overloaded {
                in_flight: self.in_flight(),
                capacity: self.capacity,
            }),
        }
    }

    /// Sum of the shard loads. Racy, but each load is at most its
    /// shard's share, so the sum is at most `capacity`.
    fn in_flight(&self) -> u32 {
        self.shards
            .iter()
            .map(|shard| shard.in_flight.load(Ordering::Acquire))
            .sum()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.shard.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Runs a query body behind the serving panic boundary: snapshot the
/// fault registry's fired serial, catch any unwind, and audit this
/// thread's fires afterwards so an injected fault that fired without
/// being absorbed surfaces as a typed error rather than a silent
/// success.
fn guarded<T>(body: impl FnOnce() -> Result<T, ServeError>) -> Result<T, ServeError> {
    let serial = fired_serial();
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(value)) => match first_unhandled_on_thread_since(serial) {
            Some(fired) => Err(ServeError::InjectedFault {
                site: fired.site,
                kind: fired.kind,
            }),
            None => Ok(value),
        },
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(match decode_panic(payload) {
            CaughtPanic::Injected(site) => ServeError::InjectedFault {
                site,
                kind: mte_faults::FaultKind::Panic,
            },
            CaughtPanic::Message(message) => ServeError::Panicked { message },
        }),
    }
}

/// A batched sweep's result with its work accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchAnswer {
    /// `distances[i][v]` = exact tree distance from `sources[i]` to
    /// vertex `v`.
    pub distances: Vec<Vec<f64>>,
    /// Work units the sweep consumed: `num_levels + ⌈n/64⌉` per source
    /// (one per chain node, one per 64 row writes).
    pub work: u64,
}

/// The deadline-governed, load-shedding distance oracle.
#[derive(Debug)]
pub struct Oracle {
    artifact: OracleArtifact,
    admission: Admission,
    config: ServeConfig,
}

impl Oracle {
    /// Wraps a validated artifact with the default serving knobs.
    pub fn new(artifact: OracleArtifact) -> Oracle {
        Oracle::with_config(artifact, ServeConfig::default())
    }

    /// Loads, validates, and wraps an encoded artifact image behind the
    /// guarded boundary: even an injected panic inside the decode path
    /// surfaces as a typed [`ServeError`], never an unwind.
    pub fn load(bytes: &[u8], config: ServeConfig) -> Result<Oracle, ServeError> {
        let artifact = guarded(|| OracleArtifact::decode(bytes))?;
        Ok(Oracle::with_config(artifact, config))
    }

    /// Wraps a validated artifact with explicit knobs.
    pub fn with_config(artifact: OracleArtifact, config: ServeConfig) -> Oracle {
        Oracle {
            admission: Admission::new(config.max_in_flight),
            artifact,
            config,
        }
    }

    /// The artifact this oracle serves.
    #[inline]
    pub fn artifact(&self) -> &OracleArtifact {
        &self.artifact
    }

    /// Queries currently in flight (racy snapshot, for telemetry).
    pub fn in_flight(&self) -> u32 {
        self.admission.in_flight()
    }

    fn validate_vertex(&self, v: u32) -> Result<(), ServeError> {
        let n = self.artifact.n();
        if (v as usize) < n {
            Ok(())
        } else {
            Err(ServeError::InvalidQuery { vertex: v, n })
        }
    }

    /// Serves one point query `dist_T(u, v)` through the full stack:
    /// validation, admission, guard, ladder.
    pub fn distance(&self, u: u32, v: u32) -> Result<Answer, ServeError> {
        self.validate_vertex(u)?;
        self.validate_vertex(v)?;
        let _permit = self.admission.admit()?;
        guarded(|| self.answer(u, v))
    }

    /// The ladder walk (see [`crate::query`] for the rung contract).
    fn answer(&self, u: u32, v: u32) -> Result<Answer, ServeError> {
        let budget = self.config.query_budget;
        let mut meter = Meter::new(budget);
        let mut degradations = Vec::new();

        // Rung 1: exact leaf-LCA climb — only if the worst case fits,
        // so a mid-rung abandonment can't strand the lower rungs.
        let tree = self.artifact.tree();
        if meter.remaining() >= tree_climb_bound(tree) {
            if let Ok(value) = tree_distance_metered(tree, u, v, &mut meter) {
                return Ok(Answer {
                    value,
                    rung: Rung::TreeLca,
                    exact: true,
                    work: meter.spent(),
                    degradations,
                });
            }
        } else {
            degradations.push(ServeDegradation::TreeLcaSkipped);
        }

        // Rung 2: full LE-list intersection (upper bound on d_G).
        let lu = &self.artifact.le_lists()[u as usize];
        let lv = &self.artifact.le_lists()[v as usize];
        if meter.remaining() >= intersection_cost(lu, lv) {
            if let Ok(value) = list_intersection_metered(lu, lv, &mut meter) {
                return Ok(Answer {
                    value,
                    rung: Rung::ListIntersection,
                    exact: false,
                    work: meter.spent(),
                    degradations,
                });
            }
        } else {
            degradations.push(ServeDegradation::IntersectionSkipped);
        }

        // Rung 3: degraded truncated-list bound (two-unit floor).
        if meter.remaining() >= 2 {
            if let Ok(value) = truncated_upper_bound(lu, lv, &mut meter) {
                return Ok(Answer {
                    value,
                    rung: Rung::Truncated,
                    exact: false,
                    work: meter.spent(),
                    degradations,
                });
            }
        }
        Err(ServeError::DeadlineExceeded { budget })
    }

    /// Serves a batched sweep: exact tree distances from every source
    /// to every vertex, one row per source filled over the artifact's
    /// leaf-DFS vertex order (see [`crate::batch`]). The budget scales
    /// with the batch (`BATCH_BUDGET_PER_SOURCE × sources`); a row costs
    /// `num_levels + ⌈n/64⌉` units.
    pub fn batch_distances(
        &self,
        sources: &[u32],
        token: &CancelToken,
    ) -> Result<BatchAnswer, ServeError> {
        for &s in sources {
            self.validate_vertex(s)?;
        }
        let _permit = self.admission.admit()?;
        let budget = BATCH_BUDGET_PER_SOURCE.saturating_mul(sources.len() as u64);
        guarded(|| {
            let mut meter = Meter::new(budget);
            let distances = batch_tree_distances(
                self.artifact.tree(),
                self.artifact.layout(),
                sources,
                token,
                &mut meter,
            )?;
            Ok(BatchAnswer {
                distances,
                work: meter.spent(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On one thread, whose home shard fills first: capacities below
    /// `SHARDS` and one not divisible by it take the steal path over
    /// uneven shares. Exactly `capacity` permits are admitted, the next
    /// arrival sheds, and releasing any one permit readmits.
    #[test]
    fn admission_sheds_beyond_capacity() {
        for capacity in [2, 3, 37] {
            let admission = Admission::new(capacity);
            let full = Some(ServeError::Overloaded {
                in_flight: capacity,
                capacity,
            });
            let mut permits: Vec<Option<Permit<'_>>> = (0..capacity)
                .map(|i| match admission.admit() {
                    Ok(p) => Some(p),
                    Err(e) => panic!("capacity {capacity}: admit {i} shed: {e}"),
                })
                .collect();
            assert_eq!(admission.admit().err(), full, "capacity {capacity}");
            for i in 0..permits.len() {
                permits[i] = None;
                permits[i] = match admission.admit() {
                    Ok(p) => Some(p),
                    Err(e) => panic!("capacity {capacity}: release {i} not readmitted: {e}"),
                };
                assert_eq!(admission.admit().err(), full, "capacity {capacity}");
            }
            drop(permits);
            assert_eq!(admission.in_flight(), 0, "capacity {capacity}");
        }
    }

    /// An unhandled fire on another thread while a query is in flight
    /// (another client's query) does not fail it; one on its own thread
    /// does. The plan targets `gr_parser`, a site serving never reaches,
    /// so the other tests of this crate cannot consume its arrivals.
    #[test]
    fn guard_audits_only_its_own_threads_fires() {
        use mte_faults::{check_for, FaultKind, FaultPlan, FaultSite};
        let fire = || check_for(FaultSite::GrParser, &[FaultKind::Io]).is_some();
        mte_faults::install(FaultPlan::parse("gr_parser:io:1:2").unwrap_or_default());
        let other_client = guarded(|| {
            let fired = std::thread::scope(|s| s.spawn(fire).join());
            Ok(fired.unwrap_or(false))
        });
        let same_thread = guarded(|| Ok(fire()));
        mte_faults::clear();
        assert_eq!(other_client, Ok(true));
        assert_eq!(
            same_thread,
            Err(ServeError::InjectedFault {
                site: FaultSite::GrParser,
                kind: FaultKind::Io
            })
        );
    }

    /// A 60-vertex gnm artifact the concurrent tests share.
    fn fixture() -> OracleArtifact {
        use mte_core::frt::{le_lists_direct, FrtTree, Ranks};
        use mte_graph::generators::gnm_graph;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(0xC11E);
        let g = gnm_graph(60, 150, 1.0..9.0, &mut rng);
        let ranks = Arc::new(Ranks::sample(g.n(), &mut rng));
        let (lists, _, _) = le_lists_direct(&g, &ranks);
        let tree = FrtTree::from_le_lists(&lists, &ranks, 1.3, g.min_weight());
        match OracleArtifact::from_parts(lists, Ranks::clone(&ranks), tree) {
            Ok(a) => a,
            Err(e) => panic!("valid parts rejected: {e}"),
        }
    }

    /// Four clients share one oracle and each queries every pair: every
    /// answer is the exact climb, bit-identical to `leaf_distance`, and
    /// no permit leaks. Under TSan this races the admission shards, the
    /// point path's only shared writes (each client mostly on its own
    /// home shard), against the tree reads.
    #[test]
    fn concurrent_clients_get_exact_climbs() {
        let oracle = Oracle::new(fixture());
        let n = oracle.artifact().n() as u32;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for u in 0..n {
                        for v in 0..n {
                            let answer = match oracle.distance(u, v) {
                                Ok(a) => a,
                                Err(e) => panic!("({u},{v}) failed: {e}"),
                            };
                            let want = oracle.artifact().tree().leaf_distance(u, v);
                            assert_eq!(answer.rung, Rung::TreeLca, "({u},{v})");
                            assert!(answer.exact, "({u},{v})");
                            assert_eq!(answer.value.to_bits(), want.to_bits(), "({u},{v})");
                        }
                    }
                });
            }
        });
        assert_eq!(oracle.in_flight(), 0);
    }

    /// Four clients share an oracle with two slots. While the test
    /// holds both, every client, whatever its home shard, scans all 16
    /// and sheds typed. Once it releases them the clients race for the
    /// two: every query is the exact climb or a typed shed, and no
    /// sample of `in_flight()` exceeds the capacity. Under TSan this
    /// races the steal path, since 14 of the 16 shards have share 0.
    #[test]
    fn concurrent_clients_never_exceed_capacity() {
        let oracle = Oracle::with_config(
            fixture(),
            ServeConfig {
                max_in_flight: 2,
                ..ServeConfig::default()
            },
        );
        let full = Some(ServeError::Overloaded {
            in_flight: 2,
            capacity: 2,
        });
        let held: Vec<Permit<'_>> = (0..2)
            .map(|i| match oracle.admission.admit() {
                Ok(p) => p,
                Err(e) => panic!("held permit {i} shed: {e}"),
            })
            .collect();
        let phase = std::sync::Barrier::new(5);
        let n = oracle.artifact().n() as u32;
        let answered: usize = std::thread::scope(|s| {
            let client = || {
                // Checked after both waits: a client that panicked
                // before them would leave the others blocked.
                let while_held = oracle.distance(0, 1).err();
                phase.wait();
                phase.wait();
                assert_eq!(while_held, full);
                let mut answered = 0;
                for u in 0..n {
                    for v in 0..n {
                        match oracle.distance(u, v) {
                            Ok(a) => {
                                let want = oracle.artifact().tree().leaf_distance(u, v);
                                assert_eq!(a.rung, Rung::TreeLca, "({u},{v})");
                                assert_eq!(a.value.to_bits(), want.to_bits(), "({u},{v})");
                                answered += 1;
                            }
                            Err(ServeError::Overloaded {
                                in_flight,
                                capacity: 2,
                            }) => assert!(in_flight <= 2, "shed at {in_flight}"),
                            Err(e) => panic!("({u},{v}) failed: {e}"),
                        }
                        assert!(oracle.in_flight() <= 2, "bound broken");
                    }
                }
                answered
            };
            let clients: Vec<_> = (0..4).map(|_| s.spawn(client)).collect();
            phase.wait();
            drop(held);
            phase.wait();
            clients
                .into_iter()
                .map(|c| c.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .sum()
        });
        // A shed needs two admitted queries in flight, so some answered.
        assert!(answered > 0);
        assert_eq!(oracle.in_flight(), 0);
    }

    #[test]
    fn guard_absorbs_plain_panics() {
        let out: Result<(), ServeError> = guarded(|| panic!("boom"));
        assert_eq!(
            out,
            Err(ServeError::Panicked {
                message: "boom".to_string()
            })
        );
    }
}
