//! Every metric the benchmark reports, and the `BENCHMARK.json` manifest
//! generated from them.

/// One metric definition.
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    ("table3", "the eight Table III worlds: the verified-forward relay path, where guard, ANS+LRS and the netsim engine each carry a large share"),
    ("spoof_flood", "the Fig. 6 world under a 200K req/s random-source spoofed flood: the guard's drop and grant path on a growing limiter table"),
    ("loopback", "GuardServer before ToyAns on real loopback sockets, 4 forged datagrams per legit query: OS I/O dominates, no netsim"),
];

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Def; 8] = [
    e2e("legit_rps", "1/s", "higher", 0.24),
    e2e("guard_dps", "1/s", "higher", 0.24),
    e2e("pkts_per_s", "1/s", "higher", 0.24),
    e2e("ok_share", "share", "higher", 0.05),
    e2e("lat_p50_us", "us", "lower", 0.24),
    e2e("lat_p99_us", "us", "lower", 0.24),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [Def; 41] = [
    layer("core.guard.self_ns", "ns", "lower"),
    layer("core.guard.calls", "count", "lower"),
    layer("core.guard.ns_p50", "ns", "lower"),
    layer("core.guard.ns_p99", "ns", "lower"),
    layer("core.guard.timer_ns", "ns", "lower"),
    layer("core.guard.wall_share", "share", "lower"),
    layer("core.guard.useful_ratio", "share", "higher"),
    layer("core.guard.rl1_dropped", "count", "lower"),
    layer("core.guard.spoofed_dropped", "count", "lower"),
    layer("core.guard.cookies_issued", "count", "lower"),
    layer("core.limiter_admit_ns", "ns", "lower"),
    layer("server.ans.self_ns", "ns", "lower"),
    layer("server.ans.calls", "count", "lower"),
    layer("server.ans.wall_share", "share", "lower"),
    layer("server.lrs.self_ns", "ns", "lower"),
    layer("server.lrs.calls", "count", "lower"),
    layer("server.lrs.wall_share", "share", "lower"),
    layer("server.lrs.completed", "count", "higher"),
    layer("server.lrs.timeouts", "count", "lower"),
    layer("attack.flood.self_ns", "ns", "lower"),
    layer("attack.flood.calls", "count", "lower"),
    layer("attack.flood.wall_share", "share", "lower"),
    layer("netsim.self_ns", "ns", "lower"),
    layer("netsim.self_ns_per_pkt", "ns/pkt", "lower"),
    layer("netsim.nic_dropped", "count", "lower"),
    layer("netsim.wall_share", "share", "lower"),
    layer("guardhash.md5_ns", "ns", "lower"),
    layer("guardhash.cookie_generate_ns", "ns", "lower"),
    layer("guardhash.cookie_verify_ns", "ns", "lower"),
    layer("dnswire.decode_ns", "ns", "lower"),
    layer("dnswire.encode_ns", "ns", "lower"),
    layer("runtime.client.query_ns", "ns", "lower"),
    layer("runtime.forged_send_ns", "ns", "lower"),
    layer("runtime.guard_server.forwarded", "count", "higher"),
    layer("runtime.guard_server.grants", "count", "lower"),
    layer("runtime.guard_server.dropped_spoofed", "count", "higher"),
    layer("runtime.guard_server.dropped_rl1", "count", "lower"),
    layer("runtime.ans.served", "count", "higher"),
    layer("runtime.io_share", "share", "higher"),
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.accounted_share", "share", "higher"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The `BENCHMARK.json` manifest.
pub fn manifest() -> String {
    let q = |s: &str| format!("\"{s}\"");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", q(n), q(why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(d.name),
                q(d.unit),
                q(d.better),
                d.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(d.name),
                q(d.unit),
                q(d.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `perfbench --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|d| d.name == setup.name || d.bound < setup.bound));
        assert!(setup.bound <= 0.25);
    }
}
