//! `e2e` — the benchmark's command line (see `harmony_benchmark::cli`).

fn main() -> std::process::ExitCode {
    harmony_benchmark::cli::main(harmony_benchmark::cli::Binary::E2e)
}
