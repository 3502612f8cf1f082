//! Command line: `run`, `compare`, `list`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::sweep::decode::{as_f64, get};

use crate::compare::{bounds, compare_files, BENCHMARK_JSON};
use crate::metrics::{end_to_end, per_layer};
use crate::run::{run, Options, GOLDEN_SEED};
use crate::workloads::Workload;

const USAGE: &str = "\
usage: benchmark run [--workload W]... [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out DIR]
       benchmark compare BASE.json CHANGE.json
       benchmark list

run      measures the workloads (default: all four, seed 7, the seconds of
         BENCHMARK.json), verifies their outputs, prints every metric as
         `workload metric value unit`, writes results.json (and trace.json
         with --traced) under DIR (default: out/ beside the benchmark's
         manifest), and ends with one JSON result line per workload
compare  holds CHANGE against BASE under the bounds of BENCHMARK.json;
         exits non-zero on a breach, a failure, or a count that differs
list     prints every workload and metric name";

/// Prints the names the benchmark speaks, one per line.
pub fn list() -> Vec<String> {
    let mut lines: Vec<String> =
        Workload::ALL.iter().map(|w| format!("workload {}", w.name())).collect();
    let bounds = bounds();
    for m in end_to_end() {
        let bound = bounds.iter().find(|(n, _, _)| *n == m.name).map_or(f64::NAN, |b| b.2);
        lines.push(format!("end_to_end {} {} {} {bound}", m.name, m.unit, m.better.as_str()));
    }
    for m in per_layer() {
        lines.push(format!("per_layer {} {} {}", m.name, m.unit, m.better.as_str()));
    }
    lines
}

fn run_seconds() -> f64 {
    let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    get(&doc, "run_seconds").and_then(as_f64).expect("BENCHMARK.json has run_seconds")
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: GOLDEN_SEED,
        seconds: run_seconds(),
        traced: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or_else(|| format!("no workload {name}"))?;
                opts.workloads.push(w);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => opts.traced = true,
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", rest)) => {
            parse_run(rest).and_then(|opts| run(&opts).map_err(|e| format!("cannot write: {e}")))
        }
        Some(("compare", [base, change])) => {
            match compare_files(Path::new(base), Path::new(change)) {
                Ok(0) => Ok(()),
                Ok(_) => return ExitCode::from(1),
                Err(e) => Err(e),
            }
        }
        Some(("list", [])) => {
            for line in list() {
                println!("{line}");
            }
            Ok(())
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::sweep::decode::as_str;
    use serde::Value;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let o = parse_run(&args("--workload sweep_grid --seed 11 --seconds 20 --trace 1")).unwrap();
        assert_eq!(o.workloads, [Workload::SweepGrid]);
        assert_eq!((o.seed, o.seconds, o.traced), (11, 20.0, true));
        let o = parse_run(&[]).unwrap();
        assert_eq!(o.workloads, Workload::ALL);
        assert_eq!((o.seed, o.traced), (GOLDEN_SEED, false));
        assert!(parse_run(&args("--workload hit")).is_err());
        assert!(parse_run(&args("--trace 2")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
    }

    /// Every name in `BENCHMARK.json` is well-formed and is one `list`
    /// prints, with the same unit and direction — and the other way round.
    #[test]
    fn benchmark_json_and_list_name_the_same_things() {
        let doc = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let mut declared = Vec::new();
        for (section, keys) in [
            ("workloads", &["name"][..]),
            ("end_to_end", &["name", "unit", "better"][..]),
            ("per_layer", &["name", "unit", "better"][..]),
        ] {
            let Some(Value::Array(entries)) = get(&doc, section) else { panic!("{section}") };
            for e in entries {
                let fields: Vec<&str> =
                    keys.iter().map(|k| as_str(get(e, k).unwrap()).unwrap()).collect();
                let name = fields[0];
                assert!(
                    !name.is_empty()
                        && name.len() <= 64
                        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "malformed name {name:?}"
                );
                let kind = if section == "workloads" { "workload" } else { section };
                declared.push(format!("{kind} {}", fields.join(" ")));
            }
        }
        let listed: Vec<String> = list()
            .into_iter()
            .map(|l| match l.strip_prefix("end_to_end ") {
                // `list` appends the bound to end-to-end lines.
                Some(_) => l.rsplit_once(' ').unwrap().0.to_owned(),
                None => l,
            })
            .collect();
        assert_eq!(declared, listed);
    }
}
