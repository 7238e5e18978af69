//! Renders every Table 1 experiment (E1–E10, the two ablations, the Table 1
//! index and the wave-pipeline figure) into the one artifact that
//! `tests/table1.rs` pins section by section:
//!
//! ```text
//! cargo run --release -p dapsp-bench --bin dapsp-paper > artifacts/table1.txt
//! ```
//!
//! A failed shape assertion panics, so a zero exit is the reproduction check.

fn main() {
    print!("{}", dapsp_bench::render());
}
