//! Prints the tables of the claims named on the command line, or of
//! every claim in docs/DESIGN.md §4's order when none is named:
//! `cargo run --release -p mte-bench --bin exp_all -- [id…]`. An
//! unknown id exits non-zero and lists the valid ones. All of them take
//! about 17 s in release on a 2-vCPU host.
use mte_bench::suite::select;
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    match select(&ids) {
        Ok(claims) => {
            for (_, table) in claims {
                table().print();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("exp_all: {e}");
            ExitCode::FAILURE
        }
    }
}
