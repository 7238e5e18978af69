//! The untraced benchmark binary: the system allocator, no counters.

fn main() -> std::process::ExitCode {
    dapsp_benchmark::main()
}
