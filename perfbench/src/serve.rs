//! The serving phase: a closed loop of client threads against the
//! artifacts the embedding phase froze.
//!
//! Each client sends its next operation only after the previous one
//! returned. Most operations are point queries drawn Zipf from a fixed
//! universe of vertex pairs; every `SWEEP_EVERY`-th is a batch sweep
//! over `SWEEP_SOURCES` sources, and every `RELOAD_EVERY`-th swaps in a
//! freshly `Oracle::load`ed oracle (cold cache) over the next artifact.
//! Every point answer and a sample of every sweep's cells are checked
//! against `FrtTree::leaf_distance`, outside the timed call.

use crate::stats::Histogram;
use crate::trace::{Span, Tracer};
use crate::workload::{sub_seed, Setup, STREAM_CLIENT, STREAM_LEN};
use mte_core::frt::FrtTree;
use mte_serving::{CancelToken, Oracle, Rung, ServeConfig, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const SWEEP_EVERY: u64 = 1 << 17;
pub const SWEEP_SOURCES: usize = 64;
pub const RELOAD_EVERY: u64 = 1 << 18;
/// Operations per client before timing starts.
pub const WARMUP_OPS: u64 = 4096;
/// In the traced run, clients alternate blocks of this many operations
/// with and without span recording, until their span buffer is full; the
/// difference in time per operation is the tracing overhead.
const TRACE_BLOCK: u64 = 4096;
/// Spans kept per client and round; later operations are not traced.
const SPAN_CAP: usize = 1 << 15;
/// Sweep cells checked per sweep.
const SWEEP_CHECKS: usize = 32;

/// What the clients serve: one frozen artifact per built tree.
pub struct Served<'a> {
    trees: Vec<&'a FrtTree>,
    bytes: Vec<&'a [u8]>,
    /// `expected[a][i]`: tree distance of universe pair `i` in artifact `a`.
    expected: Vec<Vec<f64>>,
}

impl<'a> Served<'a> {
    pub fn new(setup: &Setup, artifacts: impl Iterator<Item = (&'a FrtTree, &'a [u8])>) -> Self {
        let (trees, bytes): (Vec<_>, Vec<_>) = artifacts.unzip();
        let expected = trees
            .iter()
            .map(|t| {
                let pairs = setup.universe.iter();
                pairs.map(|&(u, v)| t.leaf_distance(u, v)).collect()
            })
            .collect();
        Served {
            trees,
            bytes,
            expected,
        }
    }
}

struct Shared<'a> {
    setup: &'a Setup,
    served: &'a Served<'a>,
    current: Mutex<(Arc<Oracle>, usize)>,
    generation: AtomicU64,
    reloads: AtomicU64,
}

impl Shared<'_> {
    fn current(&self) -> (Arc<Oracle>, usize) {
        let guard = self
            .current
            .lock()
            .expect("no client panics holding the lock");
        (Arc::clone(&guard.0), guard.1)
    }
}

/// Per-client tallies, merged after the run.
pub struct ServeOutcome {
    pub latency_ns: Histogram,
    pub work: Histogram,
    /// Answers per rung: cache, tree LCA, intersection, truncated.
    pub rungs: [u64; 4],
    /// Σ over clients of timed point queries / timed window.
    pub point_qps: f64,
    pub shed: u64,
    pub errors: u64,
    pub sweep_s: Vec<f64>,
    pub sweep_answers: u64,
    pub sweep_work: Vec<f64>,
    pub load_s: Vec<f64>,
    pub load_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Point-only block time per operation, [untraced, traced].
    pub block_ns: [f64; 2],
    pub block_ops: [u64; 2],
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl ServeOutcome {
    pub fn new() -> ServeOutcome {
        ServeOutcome {
            latency_ns: Histogram::new(1 << 16),
            work: Histogram::new(1 << 13),
            rungs: [0; 4],
            point_qps: 0.0,
            shed: 0,
            errors: 0,
            sweep_s: Vec::new(),
            sweep_answers: 0,
            sweep_work: Vec::new(),
            load_s: Vec::new(),
            load_bytes: 0,
            attempted: 0,
            failed: 0,
            block_ns: [0.0; 2],
            block_ops: [0; 2],
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    pub fn merge(&mut self, other: ServeOutcome) {
        self.latency_ns.merge(&other.latency_ns);
        self.work.merge(&other.work);
        for (a, b) in self.rungs.iter_mut().zip(other.rungs) {
            *a += b;
        }
        self.point_qps += other.point_qps;
        self.shed += other.shed;
        self.errors += other.errors;
        self.sweep_s.extend(other.sweep_s);
        self.sweep_answers += other.sweep_answers;
        self.sweep_work.extend(other.sweep_work);
        self.load_s.extend(other.load_s);
        self.load_bytes += other.load_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for i in 0..2 {
            self.block_ns[i] += other.block_ns[i];
            self.block_ops[i] += other.block_ops[i];
        }
        self.spans.extend(other.spans);
        self.spans_dropped += other.spans_dropped;
    }

    /// Tracing overhead on the point path, in percent: time per operation
    /// of traced blocks over untraced blocks.
    pub fn trace_overhead_pct(&self) -> f64 {
        let per_op = |i: usize| self.block_ns[i] / self.block_ops[i].max(1) as f64;
        if self.block_ops[0] == 0 || self.block_ops[1] == 0 {
            return 0.0;
        }
        (per_op(1) / per_op(0) - 1.0) * 100.0
    }
}

/// One serving round: one client thread per stream, for `duration`,
/// starting from a freshly loaded oracle over artifact `round mod K`.
pub fn run(
    setup: &Setup,
    served: &Served<'_>,
    seed: u64,
    round: u64,
    duration: Duration,
    trace: bool,
    epoch: Instant,
) -> ServeOutcome {
    let mut total = ServeOutcome::new();
    if served.bytes.is_empty() {
        return total;
    }
    let start = round as usize % served.bytes.len();
    total.attempted += 1;
    let Ok(oracle) = Oracle::load(served.bytes[start], ServeConfig::default()) else {
        total.failed += 1;
        return total;
    };
    let shared = Shared {
        setup,
        served,
        current: Mutex::new((Arc::new(oracle), start)),
        generation: AtomicU64::new(0),
        reloads: AtomicU64::new(start as u64),
    };
    let deadline = Instant::now() + duration;
    let outcomes: Vec<ServeOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..setup.streams.len())
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || client(c, shared, seed, round, deadline, trace, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for o in outcomes {
        total.merge(o);
    }
    total
}

fn client(
    id: usize,
    shared: &Shared<'_>,
    seed: u64,
    round: u64,
    deadline: Instant,
    trace: bool,
    epoch: Instant,
) -> ServeOutcome {
    let mut out = ServeOutcome::new();
    let clients = shared.setup.streams.len() as u64;
    let thread = 1 + round * clients + id as u64;
    let mut tracer = Tracer::new(epoch, thread as u32, trace, SPAN_CAP);
    let stream = &shared.setup.streams[id];
    // The stream is cycled; a round enters it at one of three points.
    let offset = round as usize * (STREAM_LEN / 3);
    let universe = &shared.setup.universe;
    let n = shared.setup.graph.n() as u32;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, STREAM_CLIENT + (thread << 8)));
    let token = CancelToken::new();
    let (mut oracle, mut idx) = shared.current();
    let mut seen_generation = 0;
    let mut window_start = Instant::now();
    let mut timed_points = 0u64;
    let mut block_start = Instant::now();
    // Blocks that ran only point queries count towards the overhead.
    let mut block_clean = true;
    let mut traced = false;
    let mut op = 0u64;
    loop {
        if op == WARMUP_OPS {
            window_start = Instant::now();
        }
        if op.is_multiple_of(TRACE_BLOCK) {
            let now = Instant::now();
            if op > WARMUP_OPS && block_clean && !(trace && tracer.is_full()) {
                out.block_ns[usize::from(traced)] += (now - block_start).as_nanos() as f64;
                out.block_ops[usize::from(traced)] += TRACE_BLOCK;
            }
            block_start = now;
            block_clean = true;
            traced = trace && (op / TRACE_BLOCK) % 2 == 1 && !tracer.is_full();
        }
        let generation = shared.generation.load(Ordering::Acquire);
        if generation != seen_generation {
            (oracle, idx) = shared.current();
            seen_generation = generation;
        }
        let timed = op >= WARMUP_OPS;
        let key = (thread << 40) | op;
        out.attempted += 1;
        let end;
        if op % RELOAD_EVERY == RELOAD_EVERY - 1 {
            block_clean = false;
            let next = (shared.reloads.fetch_add(1, Ordering::AcqRel) + 1) as usize
                % shared.served.bytes.len();
            let bytes = shared.served.bytes[next];
            let t0 = Instant::now();
            let loaded = Oracle::load(bytes, ServeConfig::default());
            end = Instant::now();
            match loaded {
                Ok(fresh) => {
                    out.load_s.push((end - t0).as_secs_f64());
                    out.load_bytes += bytes.len() as u64;
                    let mut guard = shared
                        .current
                        .lock()
                        .expect("no client panics holding the lock");
                    *guard = (Arc::new(fresh), next);
                    shared.generation.fetch_add(1, Ordering::AcqRel);
                }
                Err(_) => out.failed += 1,
            }
            tracer.record("load", 0, key, t0, end);
        } else if op % SWEEP_EVERY == SWEEP_EVERY - 1 {
            block_clean = false;
            let sources: Vec<u32> = (0..SWEEP_SOURCES).map(|_| rng.gen_range(0..n)).collect();
            let t0 = Instant::now();
            let swept = oracle.batch_distances(&sources, &token);
            end = Instant::now();
            match swept {
                Ok(batch) => {
                    out.sweep_s.push((end - t0).as_secs_f64());
                    out.sweep_answers += (sources.len() * n as usize) as u64;
                    out.sweep_work.push(batch.work as f64);
                    let tree = shared.served.trees[idx];
                    let wrong = (0..SWEEP_CHECKS).any(|k| {
                        let i = k * SWEEP_SOURCES / SWEEP_CHECKS;
                        let v = rng.gen_range(0..n);
                        batch.distances[i][v as usize].to_bits()
                            != tree.leaf_distance(sources[i], v).to_bits()
                    });
                    out.failed += u64::from(wrong);
                }
                Err(_) => out.failed += 1,
            }
            tracer.record("batch", 0, key, t0, end);
        } else {
            let pair = stream[(offset + op as usize) % STREAM_LEN] as usize;
            let (u, v) = universe[pair];
            let t0 = Instant::now();
            let answer = oracle.distance(u, v);
            end = Instant::now();
            match answer {
                Ok(a) => {
                    let rung = match a.rung {
                        Rung::CacheHit => 0,
                        Rung::TreeLca => 1,
                        Rung::ListIntersection => 2,
                        Rung::Truncated => 3,
                    };
                    out.rungs[rung] += 1;
                    out.work.add(a.work);
                    let right =
                        a.exact && a.value.to_bits() == shared.served.expected[idx][pair].to_bits();
                    out.failed += u64::from(!right);
                }
                Err(ServeError::Overloaded { .. }) => {
                    out.shed += 1;
                    out.failed += 1;
                }
                Err(_) => {
                    out.errors += 1;
                    out.failed += 1;
                }
            }
            if timed {
                out.latency_ns.add((end - t0).as_nanos() as u64);
                timed_points += 1;
            }
            if traced {
                tracer.record("point", 0, key, t0, end);
            }
        }
        op += 1;
        if end >= deadline {
            break;
        }
    }
    let window = (Instant::now() - window_start).as_secs_f64();
    if op > WARMUP_OPS && window > 0.0 {
        out.point_qps = timed_points as f64 / window;
    }
    let (spans, dropped) = tracer.into_parts();
    out.spans = spans;
    out.spans_dropped = dropped;
    out
}
