//! `layers` — the traced pass on its own: the in-process layer timings,
//! the traced steady window, a slice of every workload at the issue's
//! sizes, and `benchmark/out/trace.json` (see `harmony_benchmark::cli`).

fn main() -> std::process::ExitCode {
    harmony_benchmark::cli::main(harmony_benchmark::cli::Binary::Layers)
}
