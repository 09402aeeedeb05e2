//! Experiment driver. See docs/DESIGN.md §4.
fn main() {
    mte_bench::suite::exp_oracle_work().print();
}
