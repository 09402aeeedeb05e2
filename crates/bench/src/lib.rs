//! Benchmark harness and experiment drivers.
//!
//! The paper is a theory paper without empirical tables; every
//! experiment here turns one of its theorems into a measurable artifact
//! (the index lives in docs/DESIGN.md §4):
//!
//! | binary | claim |
//! |--------|-------|
//! | `exp_levels`      | Lemma 4.1 (Λ ∈ O(log n)) |
//! | `exp_spd`         | Theorem 4.5 (SPD(H) ∈ O(log² n)) |
//! | `exp_h_stretch`   | Theorem 4.5 / Eq. 4.16 (stretch of H) |
//! | `exp_triangle`    | Observation 1.1 (hop sets break the triangle inequality; H restores it) |
//! | `exp_oracle_work` | Theorem 5.2 (oracle ≡ explicit H, at sparse cost) |
//! | `exp_hopset`      | hop-set property (Cohen substitute, Eq. 1.3) |
//! | `exp_le_lists`    | Lemma 7.6 (LE lists have length O(log n)) |
//! | `exp_frt_stretch` | Theorem 7.9 / Cor. 7.10 (expected stretch O(log n)) |
//! | `exp_spanner_frt` | Cor. 7.11 (spanner: work ↓, stretch ×(2k−1)) |
//! | `exp_metric`      | Theorems 6.1/6.2 (approximate metrics) |
//! | `exp_congest`     | Sec. 8 (Khan vs skeleton round complexity) |
//! | `exp_kmedian`     | Theorem 9.2 (k-median quality) |
//! | `exp_buyatbulk`   | Theorem 10.2 (buy-at-bulk quality) |
//! | `exp_baseline`    | Sec. 1.1 (oracle pipeline vs Ω(n²) metric baseline) |

pub mod checkpoint_suite;
pub mod engine_suite;
pub mod suite;
pub mod tables;
