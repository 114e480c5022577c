//! The `qvisor` command-line tool: synthesize, verify, and compile
//! multi-tenant scheduling policies from JSON configuration files.
//!
//! See `qvisor::cli::USAGE` (printed on any usage error) and the README.
//! Exit codes are scripting-stable: 0 = success, 2 = `check` failed with
//! error-severity findings, 3 = `check` failed only via `--deny-warnings`
//! promotion, 1 = any other error.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match qvisor::cli::run(&args) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.exit_code());
        }
    }
}
