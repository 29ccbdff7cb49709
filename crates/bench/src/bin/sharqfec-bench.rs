//! `sharqfec-bench <subcommand>` — regenerates the paper's figures and
//! runs the audited sweeps (see `sharqfec_bench::cli::USAGE`).
//!
//! Run: `cargo run -p sharqfec-bench --release -- <subcommand> [flags]`

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    sharqfec_bench::cli::main(&argv)
}
