//! `efctl` — command-line front end for the Edge Fabric reproduction.
//!
//! Machine-readable output (JSON / JSON lines) goes to stdout; human
//! tables and notes go to stderr, so `efctl ... | jq` always works.

use std::io::Write as _;

use ef_cli::{execute, parse_args, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("efctl: {e}\n\n{USAGE}");
        std::process::exit(2)
    });
    match execute(args) {
        Ok(out) => {
            // stderr first so progress/tables appear before the JSON when
            // both streams share a terminal.
            eprint!("{}", out.stderr);
            print!("{}", out.stdout);
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("efctl: {e}");
            std::process::exit(1);
        }
    }
}
