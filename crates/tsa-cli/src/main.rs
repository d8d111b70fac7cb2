//! `tsa` — command-line optimal three-sequence aligner.
//!
//! ```text
//! tsa align --file seqs.fasta [options]        # first three FASTA records
//! tsa align --a ACGT --b AGT --c ACT [options] # inline sequences
//! tsa gen --len 120 --sub 0.1 --indel 0.03 --seed 7   # emit a workload
//! tsa help
//! ```
//!
//! Run `tsa help` for the full option list.

mod args;
mod chaos;
mod cluster;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) | Err(commands::Failure::StdoutClosed) => ExitCode::SUCCESS,
            Err(commands::Failure::Message(e)) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
