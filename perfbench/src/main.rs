//! DNS Guard benchmark.
//!
//! ```text
//! perfbench --workload <table3|spoof_flood|loopback> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --all [--seed <n>] [--seconds <s>]   # every workload, end-to-end metrics
//! perfbench --manifest                           # print BENCHMARK.json
//! ```
//!
//! A run prints notes and one `metric` line per metric, then, as its last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Any failed correctness check makes `correct` false
//! and the exit code 1.

mod loopback;
mod metrics;
mod refkernel;
mod replay;
mod simwl;
mod span;
mod stats;
mod worlds;

use simwl::SimWorkload;
use std::process::ExitCode;

/// What one run found.
#[derive(Debug)]
pub struct Report {
    /// No correctness check failed.
    pub correct: bool,
    /// Checked operations (world runs, legitimate queries).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// (name, value, unit) in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("FAIL {why}"));
    }

    /// Reports every per-layer metric whose name starts with one of
    /// `prefixes` as 0: the layer does not exist on this workload.
    pub fn absent(&mut self, prefixes: &[&str]) {
        for d in metrics::PER_LAYER
            .iter()
            .filter(|d| prefixes.iter().any(|p| d.name.starts_with(p)))
        {
            self.metric(d.name, 0.0, d.unit);
        }
    }

    /// Fails unless the metrics are exactly `defs`, each once, all finite.
    fn require(&mut self, defs: &[metrics::Def]) {
        for d in defs {
            match self.metrics.iter().filter(|m| m.0 == d.name).count() {
                1 => {}
                n => self.fail(format!("metric {} reported {n} times", d.name)),
            }
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !defs.iter().any(|d| d.name == m.0))
            .map(|m| m.0.clone())
            .collect();
        for name in extra {
            self.fail(format!("undeclared metric {name}"));
        }
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0.clone())
            .collect();
        for name in bad {
            self.fail(format!("metric {name} is not a finite number"));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> Option<Report> {
    let mut report = match name {
        "table3" => simwl::run(SimWorkload::Table3, seed, seconds, trace),
        "spoof_flood" => simwl::run(SimWorkload::SpoofFlood, seed, seconds, trace),
        "loopback" => loopback::run(seed, seconds, trace),
        _ => return None,
    };
    report.require(if trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    });
    Some(report)
}

fn print(workload: &str, report: &Report) {
    for n in &report.notes {
        println!("# {workload}: {n}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {workload} {name} = {} {unit}", num(*value));
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload <table3|spoof_flood|loopback> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       perfbench --all [--seed <n>] [--seconds <s>]");
    eprintln!("       perfbench --manifest");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let seed = match value("--seed").map(|s| s.parse::<u64>()) {
        Some(Ok(s)) => s,
        None => 1,
        Some(Err(_)) => return usage(),
    };
    let seconds = match value("--seconds").map(|s| s.parse::<u64>()) {
        Some(Ok(s)) if s > 0 => s,
        None => metrics::RUN_SECONDS,
        _ => return usage(),
    };
    let trace = match value("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    if args.iter().any(|a| a == "--all") {
        let mut ok = true;
        for (name, _) in metrics::WORKLOADS {
            let report = run_workload(name, seed, seconds, false).expect("declared workload");
            print(name, &report);
            ok &= report.correct;
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = value("--workload") else {
        return usage();
    };
    let Some(report) = run_workload(workload, seed, seconds, trace) else {
        eprintln!("unknown workload {workload}");
        return usage();
    };
    print(workload, &report);
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
