//! The resilience front-end: admission control, the guarded panic
//! boundary, and the [`Oracle`] that walks the answer ladder.
//!
//! Three layers wrap every query:
//!
//! - **Admission** — a bounded in-flight counter; arrivals beyond the
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
use crate::batch::{batch_tree_distances, CancelToken};
use crate::cache::{pair_key, CacheStats, Probe, ShardedCache};
use crate::error::ServeError;
use crate::query::{
    intersection_cost, list_intersection_metered, tree_climb_bound, tree_distance_metered,
    truncated_upper_bound, Answer, Meter, Rung, ServeDegradation,
};
use mte_faults::{fired_serial, first_unhandled_on_thread_since, InjectedPanic};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

/// Serving knobs. The defaults are generous enough that every rung is
/// affordable on the benchmark graphs; tests shrink them to force
/// ladder falls deterministically.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Work-unit budget per point query.
    pub query_budget: u64,
    /// Work-unit budget per source in a batch sweep.
    pub batch_budget_per_query: u64,
    /// LE-list prefix length the degraded rung may inspect.
    pub truncate_len: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// LRU capacity per shard.
    pub cache_per_shard: usize,
    /// Admission capacity: maximum queries in flight at once.
    pub max_in_flight: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            query_budget: 4096,
            batch_budget_per_query: 4096,
            truncate_len: 8,
            cache_shards: 8,
            cache_per_shard: 512,
            max_in_flight: 256,
        }
    }
}

/// Bounded in-flight admission counter.
#[derive(Debug)]
struct Admission {
    in_flight: AtomicU32,
    capacity: u32,
}

/// RAII in-flight slot; releases on drop, panic or not.
struct Permit<'a> {
    admission: &'a Admission,
}

impl Admission {
    fn new(capacity: u32) -> Admission {
        Admission {
            in_flight: AtomicU32::new(0),
            capacity,
        }
    }

    fn admit(&self) -> Result<Permit<'_>, ServeError> {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.capacity {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Overloaded {
                in_flight: prev,
                capacity: self.capacity,
            });
        }
        Ok(Permit { admission: self })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.in_flight.fetch_sub(1, Ordering::AcqRel);
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
        Err(payload) => {
            if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
                return Err(ServeError::InjectedFault {
                    site: injected.site,
                    kind: mte_faults::FaultKind::Panic,
                });
            }
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(ServeError::Panicked { message })
        }
    }
}

/// A batched sweep's result with its work accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchAnswer {
    /// `distances[i][v]` = exact tree distance from `sources[i]` to
    /// vertex `v`.
    pub distances: Vec<Vec<f64>>,
    /// Work units the sweep consumed.
    pub work: u64,
}

/// The deadline-governed, load-shedding distance oracle.
#[derive(Debug)]
pub struct Oracle {
    artifact: OracleArtifact,
    cache: ShardedCache,
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
            cache: ShardedCache::new(config.cache_shards, config.cache_per_shard),
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

    /// Aggregated cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Queries currently in flight (racy snapshot, for telemetry).
    pub fn in_flight(&self) -> u32 {
        self.admission.in_flight.load(Ordering::Acquire)
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
        let deadline = |meter: &Meter| ServeError::DeadlineExceeded {
            budget: meter.budget(),
        };

        // Rung 1: cache. One unit per probe.
        let key = pair_key(u, v, self.artifact.n());
        meter.charge(1).map_err(|_| deadline(&meter))?;
        match self.cache.probe(key) {
            Probe::Hit(value) => {
                return Ok(Answer {
                    value,
                    rung: Rung::CacheHit,
                    exact: true,
                    work: meter.spent(),
                    degradations,
                });
            }
            Probe::PoisonEvicted => degradations.push(ServeDegradation::CachePoisonEvicted),
            Probe::Miss => {}
        }

        // Rung 2: exact leaf-LCA climb — only if the worst case fits,
        // so a mid-rung abandonment can't strand the lower rungs.
        let tree = self.artifact.tree();
        if meter.remaining() >= tree_climb_bound(tree) {
            if let Ok(value) = tree_distance_metered(tree, u, v, &mut meter) {
                self.cache.insert(key, value);
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

        // Rung 3: full LE-list intersection (upper bound on d_G).
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

        // Rung 4: degraded truncated-list bound (two-unit floor).
        if meter.remaining() >= 2 {
            if let Ok(value) = truncated_upper_bound(lu, lv, self.config.truncate_len, &mut meter) {
                return Ok(Answer {
                    value,
                    rung: Rung::Truncated,
                    exact: false,
                    work: meter.spent(),
                    degradations,
                });
            }
        }
        Err(deadline(&meter))
    }

    /// Serves a batched sweep: exact tree distances from every source
    /// to every vertex, through the dense block kernel. The budget
    /// scales with the batch (`batch_budget_per_query × sources`).
    pub fn batch_distances(
        &self,
        sources: &[u32],
        token: &CancelToken,
    ) -> Result<BatchAnswer, ServeError> {
        for &s in sources {
            self.validate_vertex(s)?;
        }
        let _permit = self.admission.admit()?;
        let budget = self
            .config
            .batch_budget_per_query
            .saturating_mul(sources.len() as u64);
        guarded(|| {
            let mut meter = Meter::new(budget);
            let distances = batch_tree_distances(&self.artifact, sources, token, &mut meter)?;
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

    #[test]
    fn admission_sheds_beyond_capacity() {
        let admission = Admission::new(2);
        let p1 = match admission.admit() {
            Ok(p) => p,
            Err(e) => panic!("first admit shed: {e}"),
        };
        let p2 = match admission.admit() {
            Ok(p) => p,
            Err(e) => panic!("second admit shed: {e}"),
        };
        assert!(matches!(
            admission.admit(),
            Err(ServeError::Overloaded {
                in_flight: 2,
                capacity: 2
            })
        ));
        drop(p1);
        let p3 = admission.admit();
        assert!(p3.is_ok());
        drop(p2);
        drop(p3);
        assert_eq!(admission.in_flight.load(Ordering::Acquire), 0);
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
