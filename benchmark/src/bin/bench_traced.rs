//! The same benchmark with the counting allocator installed, for the traced run's
//! `runtime.allocs_per_task` and `runtime.alloc_bytes_per_task`.

#[global_allocator]
static ALLOCATOR: weakdep_benchmark::alloc::CountingAllocator =
    weakdep_benchmark::alloc::CountingAllocator;

fn main() -> std::process::ExitCode {
    weakdep_benchmark::cli::main()
}
