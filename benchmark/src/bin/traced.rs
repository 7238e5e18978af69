//! The traced benchmark binary: identical to the plain one except that
//! every allocation is counted, which is what `alloc_delta` on a span and
//! the `host.alloc_*` metrics read.

use dapsp_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    dapsp_benchmark::main()
}
