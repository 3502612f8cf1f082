//! What a run leaves behind: the lines it prints, `results.json`,
//! `trace.json`, and the machine fingerprint every record carries.

use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::metrics::{Measured, FAIL_SHARE};
use crate::stats::Summary;
use crate::workloads::Workload;

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// What the machine was doing during an end-to-end pass, and what the clock
/// read before the yardstick's slowdown was divided out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Per repetition, raw wall seconds ÷ quiet-machine seconds.
    pub slowdown: Summary,
    pub raw_sim_s_per_wall_s: f64,
    pub raw_setup_s: f64,
}

/// Everything one workload measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: Workload,
    /// Operations (simulations, sweep scenarios) over every repetition.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Outcome digest per simulation, as pinned under `golden/`.
    pub digests: Vec<(String, String)>,
    pub metrics: Vec<Measured>,
    /// Present after an end-to-end pass.
    pub machine: Option<Machine>,
}

impl WorkloadResult {
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// `workload metric value unit`, one line per metric, then the digests.
    pub fn print(&self) {
        let w = self.workload.name();
        for m in &self.metrics {
            let spread = m.spread.map_or(String::new(), |s| {
                format!(" q1={} q3={} min={} max={} n={}", s.q1, s.q3, s.min, s.max, s.n)
            });
            println!("{w} {} {} {}{spread}", m.name, m.value, m.unit);
        }
        println!("{w} {FAIL_SHARE} {} failed/attempted", self.fail_share());
        if let Some(m) = self.machine {
            let s = m.slowdown;
            println!(
                "{w} machine.slowdown {} ratio min={} max={} n={}",
                s.median, s.min, s.max, s.n
            );
            println!("{w} machine.raw_sim_s_per_wall_s {} sim-s/wall-s", m.raw_sim_s_per_wall_s);
            println!("{w} machine.raw_setup_s {} s", m.raw_setup_s);
        }
        for (label, digest) in &self.digests {
            println!("{w} digest.{label} {digest}");
        }
        for f in &self.failures {
            eprintln!("{w} FAILED {f}");
        }
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (m.name.clone(), obj([("value", Value::Float(m.value)), ("unit", text(m.unit))]))
            })
            .collect();
        let line = obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("shim serializer is total")
    }

    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Value::Float(m.value)),
                    ("unit".to_owned(), text(m.unit)),
                    ("exact".to_owned(), Value::Bool(m.exact)),
                ];
                if let Some(s) = m.spread {
                    fields.extend([
                        ("q1".to_owned(), Value::Float(s.q1)),
                        ("q3".to_owned(), Value::Float(s.q3)),
                        ("min".to_owned(), Value::Float(s.min)),
                        ("max".to_owned(), Value::Float(s.max)),
                        ("n".to_owned(), Value::UInt(s.n as u64)),
                    ]);
                }
                (m.name.clone(), Value::Object(fields))
            })
            .collect();
        let digests =
            self.digests.iter().map(|(label, d)| (label.clone(), text(d.as_str()))).collect();
        let machine = self.machine.map_or(Value::Null, |m| {
            obj([
                ("slowdown", Value::Float(m.slowdown.median)),
                ("slowdown_min", Value::Float(m.slowdown.min)),
                ("slowdown_max", Value::Float(m.slowdown.max)),
                ("raw_sim_s_per_wall_s", Value::Float(m.raw_sim_s_per_wall_s)),
                ("raw_setup_s", Value::Float(m.raw_setup_s)),
            ])
        });
        obj([
            ("name", text(self.workload.name())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("failures", Value::Array(self.failures.iter().map(|f| text(f.as_str())).collect())),
            ("digests", Value::Object(digests)),
            ("metrics", Value::Object(metrics)),
            ("machine", machine),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(env!("CARGO_MANIFEST_DIR")).output();
    let out = out.ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// What a number was measured on: numbers from different fingerprints are
/// not comparable.
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_owned())
    });
    let unknown = || "unknown".to_owned();
    obj([
        ("nproc", Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64)),
        ("cpu_model", text(cpu.unwrap_or_else(unknown))),
        ("rustc", text(command_line("rustc", &["-V"]).unwrap_or_else(unknown))),
        ("git_commit", text(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown))),
    ])
}

/// The header every output record opens with.
pub fn header(seed: u64, seconds: f64, traced: bool) -> Vec<(String, Value)> {
    vec![
        ("fingerprint".to_owned(), fingerprint()),
        ("seed".to_owned(), Value::UInt(seed)),
        ("seconds".to_owned(), Value::Float(seconds)),
        ("traced".to_owned(), Value::Bool(traced)),
    ]
}

pub fn results_value(header: &[(String, Value)], results: &[WorkloadResult]) -> Value {
    let mut fields = header.to_vec();
    fields.push((
        "workloads".to_owned(),
        Value::Array(results.iter().map(WorkloadResult::to_value).collect()),
    ));
    Value::Object(fields)
}

/// Writes `value` as pretty JSON to `dir/name`, creating `dir`.
pub fn write_json(dir: &Path, name: &str, value: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let text = serde_json::to_string_pretty(value).expect("shim serializer is total");
    std::fs::write(dir.join(name), text + "\n")
}
