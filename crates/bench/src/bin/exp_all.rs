//! Runs every experiment of docs/DESIGN.md §4, in its order, and prints
//! their tables. Expect a few minutes of wall time in release.
use mte_bench::suite::*;

fn main() {
    for table in [
        exp_levels(),
        exp_spd(),
        exp_h_stretch(),
        exp_triangle(),
        exp_oracle_work(),
        exp_hopset(),
        exp_le_lists(),
        exp_frt_stretch(),
        exp_spanner_frt(),
        exp_metric(),
        exp_congest(),
        exp_kmedian(),
        exp_buyatbulk(),
        exp_catalog(),
        exp_baseline(),
        exp_ablation(),
    ] {
        table.print();
    }
}
