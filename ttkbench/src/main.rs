//! `ttkbench --workload NAME --seed N --seconds S --trace 0|1`: runs one
//! benchmark workload and prints its metrics, the JSON result line last.
//! Exits non-zero when an operation failed or an answer missed its
//! reference, and without a result line when the run could not complete.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match ttkbench::parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match ttkbench::run(&args) {
        Ok(outcome) => {
            print!("{}", ttkbench::render(&args, &outcome));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
