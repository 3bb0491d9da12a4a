//! The repo's benchmark. See `benchmark/README.md` for what is measured and
//! why; `BENCHMARK.json` at the repository root is the metric contract.
//!
//! ```text
//! tdc-benchmark run --workload W --seed N [--seconds S] [--trace [0|1]]
//! tdc-benchmark suite --seed N [--seconds S] [--trace] [--quick] [--out FILE]
//! tdc-benchmark compare A.json B.json
//! tdc-benchmark aa [--sets 2] [--runs 5] [--seed N] [--seconds S]
//! ```

mod bench;
mod catalog;
mod engine;
mod forward;
mod host;
mod http;
mod inputs;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;

use bench::Fallible;
use catalog::{contract, Workload};
use run::RunArgs;
use std::process::ExitCode;

/// `--flag value` pairs and bare words of one command line.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = args.next_if(|next| !next.starts_with("--"));
                    cli.flags.push((flag.to_string(), value));
                }
                None => cli.words.push(arg),
            }
        }
        cli
    }

    fn flag(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(f, _)| f == name).map(|(_, v)| v)
    }

    fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> Fallible<T> {
        match self.flag(name) {
            None => Ok(default),
            Some(Some(text)) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
            Some(None) => Err(format!("--{name} needs a value")),
        }
    }

    /// A switch: absent is off, bare or `1` is on, `0` is off.
    fn switch(&self, name: &str) -> Fallible<bool> {
        match self.flag(name) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) if v == "1" => Ok(true),
            Some(Some(v)) if v == "0" => Ok(false),
            Some(Some(v)) => Err(format!("--{name} takes 0 or 1, not {v:?}")),
        }
    }

    fn workload(&self) -> Fallible<Workload> {
        let name: String = self.value("workload", String::new())?;
        Workload::parse(&name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("--workload must be one of {}", known.join(", "))
        })
    }

    fn seconds(&self) -> Fallible<f64> {
        let seconds = self.value("seconds", contract().run_seconds)?;
        if seconds.is_finite() && seconds > 0.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be positive, not {seconds}"))
        }
    }
}

fn main_inner() -> Fallible<bool> {
    let cli = Cli::parse(std::env::args().skip(1));
    match cli.words.first().map(String::as_str) {
        Some("run") => {
            let args = RunArgs {
                workload: cli.workload()?,
                seed: cli.value("seed", 1)?,
                seconds: cli.seconds()?,
                trace: cli.switch("trace")?,
                setups: cli.value("setups", run::SETUPS_PER_RUN)?,
            };
            let report = run::run(&args)?;
            report.print_human();
            suite::keep_record(&report);
            // The driver reads the last line of standard output.
            println!("{}", report.contract_line());
            Ok(report.correct)
        }
        Some("setup") => {
            println!(
                "{}",
                run::set_up_once(cli.workload()?, cli.value("seed", 1)?)?
            );
            Ok(true)
        }
        Some("suite") => suite::suite(
            cli.value("seed", 1)?,
            cli.seconds()?,
            cli.switch("trace")?,
            cli.switch("quick")?,
            cli.value("out", String::new())?,
        ),
        Some("compare") => match cli.words.as_slice() {
            [_, a, b] => suite::compare(a, b),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        Some("aa") => suite::aa(
            cli.value("sets", 2)?,
            cli.value("runs", 5)?,
            cli.value("seed", 1)?,
            cli.seconds()?,
        ),
        _ => Err("usage: tdc-benchmark run|suite|compare|aa ... (see benchmark/README.md)".into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("tdc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
