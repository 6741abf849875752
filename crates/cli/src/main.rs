//! `raidsim-cli` — drive the RAID reliability model from the shell.
//!
//! ```text
//! raidsim-cli simulate [--drives 8] [--mission-years 10] [--scrub 168|off]
//!                      [--raid6] [--groups 10000] [--seed 42]
//!                      [--ttop-eta 461386] [--ttop-beta 1.12]
//!                      [--ttld-eta 9259] [--precision 0.05]
//! raidsim-cli sweep    [--scrub-hours 336,168,48,12] [--groups 2000]
//!                      [--seed 42] [--threads N] [--cache-dir DIR]
//! raidsim-cli mttdl    [--data-drives 7] [--mttf 461386] [--mttr 12]
//!                      [--groups 1000] [--years 10]
//! raidsim-cli fit      <life-data.csv>      # rows: time_hours,failed(0|1)
//! raidsim-cli table1
//! ```

mod args;
mod commands;
mod csv;
mod error;
mod progress;
mod signal;

use commands::CmdOutput;
use error::{CliError, EXIT_INTERRUPTED};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(out) => {
            print!("{}", out.text);
            if out.interrupted {
                ExitCode::from(EXIT_INTERRUPTED)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            if e.show_usage() {
                eprintln!();
                eprintln!("{}", commands::usage());
            }
            e.exit_code()
        }
    }
}

/// Dispatches a command line; returns the text to print plus the
/// interruption flag ([`EXIT_INTERRUPTED`]).
pub(crate) fn run(argv: &[String]) -> Result<CmdOutput, CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let rest = &argv[1..];
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    match command.as_str() {
        "simulate" | "sweep" | "merge" | "mttdl" | "fit" | "closedform" | "table1"
            if wants_help =>
        {
            Ok(commands::usage().into())
        }
        "simulate" => commands::simulate(rest),
        "sweep" => commands::sweep(rest),
        "merge" => commands::merge(rest),
        "mttdl" => commands::mttdl(rest),
        "fit" => commands::fit(rest),
        "closedform" => commands::closedform(rest),
        "table1" => commands::table1(rest),
        "help" | "--help" | "-h" => Ok(commands::usage().into()),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap().text;
        assert!(out.contains("simulate"));
        assert!(out.contains("mttdl"));
        assert!(out.contains("sweep"), "{out}");
        assert!(out.contains("--cache-dir"), "{out}");
        // Exit codes and checkpointing are documented.
        assert!(out.contains("exit codes"), "{out}");
        assert!(out.contains("--checkpoint"), "{out}");
    }

    #[test]
    fn help_after_a_subcommand_prints_usage() {
        let usage = commands::usage();
        for line in [
            "simulate --help",
            "sweep -h",
            "merge --help",
            "mttdl -h",
            "fit --help",
            "closedform -h",
            "table1 --help",
            "simulate --groups 10 -h",
        ] {
            match run(&argv(line)) {
                Ok(out) => {
                    assert_eq!(out.text, usage, "{line}");
                    assert!(!out.interrupted, "{line}");
                }
                Err(e) => panic!("{line}: {e}"),
            }
        }
        assert!(matches!(
            run(&argv("frobnicate --help")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(run(&argv("frobnicate")), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn mttdl_command_reproduces_eq3() {
        let out = run(&argv(
            "mttdl --data-drives 7 --mttf 461386 --mttr 12 --groups 1000 --years 10",
        ))
        .unwrap()
        .text;
        assert!(out.contains("36162") || out.contains("36,162"), "{out}");
        assert!(out.contains("0.28") || out.contains("0.277"), "{out}");
    }

    #[test]
    fn simulate_small_run_works() {
        let out = run(&argv("simulate --groups 50 --seed 7 --mission-years 2")).unwrap();
        assert!(out.text.contains("DDFs per 1,000 groups"), "{}", out.text);
        assert!(!out.interrupted);
    }

    #[test]
    fn simulate_rejects_bad_flag() {
        assert!(run(&argv("simulate --bogus 1")).is_err());
        assert!(run(&argv("simulate --drives")).is_err()); // missing value
        assert!(run(&argv("simulate --drives eight")).is_err());
    }

    /// A stray positional is a usage error (exit 2), not silently
    /// dropped, for every subcommand that takes none.
    fn assert_rejects_stray(line: &str) {
        match run(&argv(line)) {
            Err(e @ CliError::Usage(_)) => {
                assert_eq!(e.exit_code(), ExitCode::from(2), "{line}");
                assert!(e.to_string().contains("unexpected argument"), "{line}: {e}");
            }
            Err(e) => panic!("{line}: {e}"),
            Ok(_) => panic!("{line}: accepted a stray argument"),
        }
    }

    #[test]
    fn simulate_rejects_a_stray_positional() {
        assert_rejects_stray("simulate --groups 10 42");
        assert_rejects_stray("simulate --groups 10 --raid6 42");
    }

    #[test]
    fn sweep_rejects_a_stray_positional() {
        assert_rejects_stray("sweep --groups 10 stray");
    }

    #[test]
    fn mttdl_rejects_a_stray_positional() {
        assert_rejects_stray("mttdl 7");
    }

    #[test]
    fn closedform_rejects_a_stray_positional() {
        assert_rejects_stray("closedform --drives 8 9");
    }

    #[test]
    fn table1_rejects_a_stray_positional() {
        assert_rejects_stray("table1 stray");
    }

    #[test]
    fn table1_prints_grid() {
        let out = run(&argv("table1")).unwrap();
        assert!(out.text.contains("1.08"));
    }
}
