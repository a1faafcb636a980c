//! The benchmark on the system allocator: the build every end-to-end number comes from.

fn main() -> std::process::ExitCode {
    weakdep_benchmark::cli::main()
}
