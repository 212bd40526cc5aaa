//! `repro [--quick] [--seed N] [--part a|b] <figure>... | all`: the
//! paper's figures and tables, one name each (no name prints the index).
//! The table and the figures live in `repro_bench::figures`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(repro_bench::figures::main(&argv));
}
