// The counting allocator lives in the binary only: it is off (one relaxed
// load per call) except inside the traced pass.
#[global_allocator]
static ALLOC: benchmark::alloc::Counting = benchmark::alloc::Counting;

fn main() -> std::process::ExitCode {
    benchmark::cli::main(std::env::args().skip(1).collect())
}
