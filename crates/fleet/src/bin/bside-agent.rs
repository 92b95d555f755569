//! The standalone fleet agent binary: one long-lived worker per machine
//! (or per container), dialing the coordinator and pulling units. See
//! `bside_fleet::agent` for the protocol and fault-hook story.

fn main() {
    bside_obs::print_events_to_stderr();
    // Chaos opt-in (BSIDE_NET_FAULT_PLAN) happens here in main, never
    // lazily in the codec: a malformed plan refuses to start.
    if let Err(e) = bside_dist::fault::init_from_env() {
        eprintln!("bside-agent: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = bside_fleet::agent_main(&args, 1) {
        eprintln!("bside-agent: {e}");
        std::process::exit(1);
    }
}
