//! The `bside` command-line tool: analyze x86-64 ELF binaries, emit
//! policies and shared interfaces, detect execution phases, run the
//! distributed corpus engine, and serve policies as a daemon.
//!
//! The subcommand set — dispatch and usage listing alike — is generated
//! from the single table in [`bside::cli::SUBCOMMANDS`]; run with no
//! arguments for the listing.

use std::process::ExitCode;

fn main() -> ExitCode {
    bside_obs::print_events_to_stderr();
    // Chaos opt-in (BSIDE_NET_FAULT_PLAN) happens here in main, never
    // lazily in the codec: a malformed plan refuses to start.
    if let Err(e) = bside_dist::fault::init_from_env() {
        eprintln!("bside: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    bside::cli::run(&args)
}
