//! What the differential suites share: the literal references, the one
//! workload family, `with_threads`, the fault-registry guard, the
//! snapshot round trip and framer, and the conformance table — every
//! backend × algorithm cell the run drivers serve, with its graph family.
//! [`matrix`] checks each cell against its literal reference, in slices
//! run by the differential suites; `tests/fault_harness.rs` sweeps the
//! same cells under injected faults. Each suite uses a subset of this
//! module.
#![allow(dead_code)]

pub mod matrix;

use metric_tree_embedding::core::arena::ArenaBackend;
use metric_tree_embedding::core::catalog::{Connectivity, SourceDetection, WidestPaths};
use metric_tree_embedding::core::dense::DenseBackend;
use metric_tree_embedding::core::engine::{
    initial_states, iterate, iterate_scaled, LiteralBackend, MbfAlgorithm, MbfRun,
};
use metric_tree_embedding::core::frt::le_list::{LeListAlgorithm, Ranks};
use metric_tree_embedding::core::oracle::{Lane, OracleBackend};
use metric_tree_embedding::core::run::{run_to_fixpoint_on, Checkpoint, StateBackend};
use metric_tree_embedding::core::simgraph::SimulatedGraph;
use metric_tree_embedding::core::work::WorkStats;
use metric_tree_embedding::core::RunError;
use metric_tree_embedding::faults;
use metric_tree_embedding::persist::{SnapshotReader, SnapshotWriter, MAGIC, VERSION};
use metric_tree_embedding::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard};

/// Runs `f` on a dedicated pool of the given total parallelism — the
/// `MTE_THREADS` sweep without process-global state.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build cannot fail")
        .install(f)
}

/// Serializes every test of a binary that touches the global fault
/// registry.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the registry lock, silences the default panic hook (injected
/// panics are expected noise), and guarantees `faults::clear()` + hook
/// restoration on drop — even when an assertion fails mid-sweep.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl FaultGuard {
    pub fn acquire() -> FaultGuard {
        assert_env_plan_parses();
        let lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faults::clear();
        std::panic::set_hook(Box::new(|_| {}));
        FaultGuard { _lock: lock }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
        // The hook registry cannot be touched from a panicking thread
        // (it would abort the process, masking the assertion failure);
        // a failing test then leaves the no-op hook for the next guard
        // to replace, losing nothing but one backtrace.
        if !std::thread::panicking() {
            let _ = std::panic::take_hook();
        }
    }
}

/// Fails when `MTE_FAULT_PLAN` is set to a spec `FaultPlan::parse`
/// rejects. `FaultPlan::from_env` only warns on stderr and runs
/// unarmed, so a stale site name would turn a pre-armed run into a
/// clean one that still passes. Every [`FaultGuard`] checks it.
pub fn assert_env_plan_parses() {
    if let Ok(spec) = std::env::var(faults::FAULT_PLAN_ENV) {
        if let Err(err) = faults::FaultPlan::parse(&spec) {
            panic!("{}={spec:?} does not parse: {err}", faults::FAULT_PLAN_ENV);
        }
    }
}

/// A checkpoint after its round trip through the snapshot codec; a
/// decode failure is the typed `SnapshotCorrupt`.
pub fn through_snapshot(
    ckpt: &Checkpoint<DistanceMap>,
) -> Result<Checkpoint<DistanceMap>, RunError> {
    let image = SnapshotWriter::new().put_checkpoint(ckpt).encode();
    SnapshotReader::decode(&image)
        .and_then(|r| r.checkpoint())
        .map_err(|e| RunError::SnapshotCorrupt {
            detail: e.to_string(),
        })
}

/// Reference CRC-32 (IEEE, reflected `0xEDB88320`), one table lookup per
/// byte. It shares no code with the snapshot codec's kernels, so the
/// corpora's hand-framed images check those kernels rather than reuse
/// them.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Bytes of a snapshot header: magic, version, section count, body CRC.
pub const SNAPSHOT_HEADER: usize = MAGIC.len() + 4 + 4 + 4;

/// Appends one snapshot section to `body`: tag, payload length,
/// payload CRC, payload.
pub fn push_section(body: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    body.extend_from_slice(&tag.to_le_bytes());
    body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    body.extend_from_slice(&crc32(payload).to_le_bytes());
    body.extend_from_slice(payload);
}

/// A snapshot image around a body of `sections` framed sections: the
/// header with the body's CRC, then the body.
pub fn snapshot_image(sections: u32, body: &[u8]) -> Vec<u8> {
    let mut image = Vec::with_capacity(SNAPSHOT_HEADER + body.len());
    image.extend_from_slice(&MAGIC);
    image.extend_from_slice(&VERSION.to_le_bytes());
    image.extend_from_slice(&sections.to_le_bytes());
    image.extend_from_slice(&crc32(body).to_le_bytes());
    image.extend_from_slice(body);
    image
}

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

/// `narrowed` recomputed no more vertices, processed no more entries and
/// relaxed no more edges than `reference`.
pub fn assert_narrowed_work(reference: &WorkStats, narrowed: &WorkStats, label: &str) {
    for (name, want, got) in [
        (
            "touched_vertices",
            reference.touched_vertices,
            narrowed.touched_vertices,
        ),
        (
            "entries_processed",
            reference.entries_processed,
            narrowed.entries_processed,
        ),
        (
            "edge_relaxations",
            reference.edge_relaxations,
            narrowed.edge_relaxations,
        ),
    ] {
        assert!(got <= want, "{label}: {name} {got} > reference {want}");
    }
}

/// The workload graphs the arena's work pins and the serving suite are
/// drawn on: a sparse random graph, a grid and a path.
pub fn workload_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0x53E1);
    vec![
        ("gnm sparse", gnm_graph(70, 180, 1.0..10.0, &mut rng)),
        ("grid 9x9", grid_graph(9, 9, 1.0..5.0, &mut rng)),
        ("path", path_graph(56, 1.0)),
    ]
}

/// The 140-vertex oracle fixture: with `d = 24` every level's hops reach
/// their fixpoint within `d`, so every round after the priming one
/// keeps its relays.
pub fn oracle_fixture() -> (Graph, SimulatedGraph) {
    let mut rng = StdRng::seed_from_u64(0x53E5);
    let g = gnm_graph(140, 380, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 24, 0.15, &mut rng);
    (g, sim)
}

/// One graph a cell runs on: `g` itself for the fixpoint backends, the
/// simulated graph `H` over it for the oracle.
pub struct Fixture {
    pub name: &'static str,
    pub g: Graph,
    pub sim: Option<SimulatedGraph>,
    /// Seeds the ranks of the LE-list cells.
    pub rank_seed: u64,
}

impl Fixture {
    pub fn graph(name: &'static str, g: Graph, rank_seed: u64) -> Fixture {
        Fixture {
            name,
            g,
            sim: None,
            rank_seed,
        }
    }

    pub fn oracle(
        name: &'static str,
        (g, sim): (Graph, SimulatedGraph),
        rank_seed: u64,
    ) -> Fixture {
        Fixture {
            name,
            g,
            sim: Some(sim),
            rank_seed,
        }
    }

    pub fn ranks(&self) -> Arc<Ranks> {
        let mut rng = StdRng::seed_from_u64(self.rank_seed);
        Arc::new(Ranks::sample(self.g.n(), &mut rng))
    }
}

/// The graph family of the fixpoint cells: the workload graphs, a
/// graph of two components plus two isolated vertices, and one large
/// enough (a full frontier costs over four times the engine's
/// `MIN_CHUNK_COST`) that a 4-thread pool really splits its hops.
pub fn fixpoint_family() -> Vec<Fixture> {
    let mut rng = StdRng::seed_from_u64(0xEF11);
    let mut disconnected: Vec<(NodeId, NodeId, f64)> =
        gnm_graph(20, 40, 1.0..8.0, &mut rng).edges().collect();
    disconnected.extend(
        gnm_graph(14, 25, 1.0..8.0, &mut rng)
            .edges()
            .map(|(u, v, w)| (u + 20, v + 20, w)),
    );
    let mut family: Vec<Fixture> = workload_graphs()
        .into_iter()
        .map(|(name, g)| Fixture::graph(name, g, 0x53E9))
        .collect();
    family.push(Fixture::graph(
        "disconnected",
        Graph::from_edges(36, disconnected),
        0x53E9,
    ));
    let g = gnm_graph(160, 480, 1.0..9.0, &mut StdRng::seed_from_u64(0x53EA));
    family.push(Fixture::graph("gnm 160", g, 0x53E9));
    family
}

/// The graph family of the oracle cells: the 140-vertex fixture twice,
/// under the two rank draws its work pins were taken on (the second is
/// the settled-relay pin); a highway whose waves need a dozen rounds at
/// `d = 8`, so the top levels' projected inputs stand still (the
/// idle-level pin); and a 60-vertex graph at `d = 16`.
pub fn oracle_family() -> Vec<Fixture> {
    let highway = highway_graph(64, 400.0);
    let mut rng = StdRng::seed_from_u64(0x53EF);
    let highway_sim = SimulatedGraph::without_hopset(&highway, 8, 0.15, &mut rng);
    let mut rng = StdRng::seed_from_u64(0xC4E4);
    let g = gnm_graph(60, 150, 1.0..6.0, &mut rng);
    let sim = SimulatedGraph::without_hopset(&g, 16, 0.15, &mut rng);
    vec![
        Fixture::oracle("gnm 140", oracle_fixture(), 0x53EB),
        Fixture::oracle("settled", oracle_fixture(), 0x53F1),
        Fixture::oracle("idle", (highway, highway_sim), 0x53F0),
        Fixture::oracle("gnm 60", (g, sim), 0xC4E5),
    ]
}

/// Which vertices a source-masked LE-list cell keeps as sources: one
/// vertex, a third of them, or most of them but never the minimum-rank
/// node, so no vertex can rely on starting with its own entry or on the
/// global minimum reaching it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mask {
    Singleton,
    EveryThird,
    WithoutMin,
}

impl Mask {
    /// The sources on `fx`, under its rank draw.
    pub fn sources(self, fx: &Fixture) -> Vec<NodeId> {
        let (n, min) = (fx.g.n() as NodeId, fx.ranks().min_rank_node());
        match self {
            Mask::Singleton => vec![n / 2],
            Mask::EveryThird => (0..n).filter(|v| v % 3 == 0).collect(),
            Mask::WithoutMin => (0..n).filter(|&v| v != min && v % 4 != 1).collect(),
        }
    }
}

/// One cell of the conformance table: a backend (the name's first word;
/// `Oracle{Arena,Dense}` is the oracle over that lane) and an
/// algorithm. The fixpoint cells run `n + 1` hops, the oracle cells `4n`
/// rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    LiteralWidestPaths,
    LiteralConnectivity,
    LiteralKSsp,
    ArenaSssp,
    ArenaKSsp,
    ArenaLe,
    ArenaMaskedLe(Mask),
    DenseApsp,
    OracleArenaLe,
    OracleArenaKSsp,
    OracleDenseApsp,
}

/// Every cell the run drivers serve.
pub const CELLS: [Cell; 13] = [
    Cell::LiteralWidestPaths,
    Cell::LiteralConnectivity,
    Cell::LiteralKSsp,
    Cell::ArenaSssp,
    Cell::ArenaKSsp,
    Cell::ArenaLe,
    Cell::ArenaMaskedLe(Mask::Singleton),
    Cell::ArenaMaskedLe(Mask::EveryThird),
    Cell::ArenaMaskedLe(Mask::WithoutMin),
    Cell::DenseApsp,
    Cell::OracleArenaLe,
    Cell::OracleArenaKSsp,
    Cell::OracleDenseApsp,
];

/// One cell on one fixture, handed to a [`Visit`].
pub struct Case<'a, A: MbfAlgorithm, B> {
    /// `"{cell:?}/{fixture}"`, the key of the work pins.
    pub label: String,
    pub cell: Cell,
    pub alg: &'a A,
    /// The driver graph: `G`, or `sim.augmented()` for the oracle.
    pub g: &'a Graph,
    pub cap: usize,
    /// A fresh backend.
    pub backend: &'a (dyn Fn() -> B + Sync),
    /// The literal reference capped at the given number of hops.
    pub reference: &'a (dyn Fn(usize) -> MbfRun<A::M> + Sync),
}

/// What the checks need of a cell's state type.
pub trait State: PartialEq + Debug + Send + 'static {}

impl<M: PartialEq + Debug + Send + 'static> State for M {}

/// A check run over the table, generic in the cell's algorithm and
/// backend.
pub trait Visit {
    fn visit<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
        &mut self,
        case: &Case<'_, A, B>,
    );
}

impl Cell {
    pub fn is_oracle(self) -> bool {
        matches!(
            self,
            Cell::OracleArenaLe | Cell::OracleArenaKSsp | Cell::OracleDenseApsp
        )
    }

    /// The cell's graph family. Only the LE lists read the settled
    /// fixture's rank draw, and the literal oracle APSP on the 140-vertex
    /// `H` would cost more than all other oracle cells together.
    pub fn family(self) -> Vec<Fixture> {
        let mut family = if self.is_oracle() {
            oracle_family()
        } else {
            fixpoint_family()
        };
        family.retain(|fx| {
            !matches!(
                (self, fx.name),
                (Cell::OracleArenaKSsp, "settled") | (Cell::OracleDenseApsp, "settled" | "gnm 140")
            )
        });
        family
    }

    /// Hands the cell on `fx` to `v`.
    pub fn visit(self, fx: &Fixture, v: &mut impl Visit) {
        let n = fx.g.n();
        let kssp = || SourceDetection::k_ssp(n, 4);
        let le = || LeListAlgorithm::new(fx.ranks());
        match self {
            Cell::LiteralWidestPaths => {
                fixpoint(v, self, fx, WidestPaths::apwp(n), LiteralBackend::new)
            }
            Cell::LiteralConnectivity => {
                fixpoint(v, self, fx, Connectivity::all_pairs(n), LiteralBackend::new)
            }
            Cell::LiteralKSsp => fixpoint(v, self, fx, kssp(), LiteralBackend::new),
            Cell::ArenaSssp => {
                fixpoint(v, self, fx, SourceDetection::sssp(n, 1), ArenaBackend::new)
            }
            Cell::ArenaKSsp => fixpoint(v, self, fx, kssp(), ArenaBackend::new),
            Cell::ArenaLe => fixpoint(v, self, fx, le(), ArenaBackend::new),
            Cell::ArenaMaskedLe(mask) => {
                let masked = le().with_sources(&mask.sources(fx));
                fixpoint(v, self, fx, masked, ArenaBackend::new)
            }
            Cell::DenseApsp => fixpoint(v, self, fx, SourceDetection::apsp(n), || {
                DenseBackend::new(None)
            }),
            Cell::OracleArenaLe => oracle::<_, ArenaBackend>(v, self, fx, le()),
            Cell::OracleArenaKSsp => oracle::<_, ArenaBackend>(v, self, fx, kssp()),
            Cell::OracleDenseApsp => {
                oracle::<_, DenseBackend>(v, self, fx, SourceDetection::apsp(n))
            }
        }
    }
}

fn fixpoint<A: MbfAlgorithm<M: State> + Sync, B: StateBackend<A>>(
    v: &mut impl Visit,
    cell: Cell,
    fx: &Fixture,
    alg: A,
    backend: impl Fn() -> B + Sync,
) {
    let reference = |cap| literal_fixpoint(&alg, &fx.g, cap);
    v.visit(&Case {
        label: format!("{cell:?}/{}", fx.name),
        cell,
        alg: &alg,
        g: &fx.g,
        cap: fx.g.n() + 1,
        backend: &backend,
        reference: &reference,
    });
}

fn oracle<A: MbfAlgorithm<S = MinPlus, M: State> + Sync, L: Lane<A>>(
    v: &mut impl Visit,
    cell: Cell,
    fx: &Fixture,
    alg: A,
) {
    let sim = fx.sim.as_ref().expect("an oracle cell runs on H");
    let reference = |cap| literal_oracle(&alg, sim, cap);
    v.visit(&Case {
        label: format!("{cell:?}/{}", fx.name),
        cell,
        alg: &alg,
        g: sim.augmented(),
        cap: 4 * fx.g.n(),
        backend: &|| OracleBackend::<_, L>::new(sim),
        reference: &reference,
    });
}
