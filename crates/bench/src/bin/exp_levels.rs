//! E1 — Lemma 4.1. See docs/DESIGN.md §4.
fn main() {
    mte_bench::suite::exp_levels().print();
}
