//! The repository benchmark (see `run.py`, which builds and runs this
//! program, and `BENCHMARK.json` at the repository root).
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, sets the system up,
//! measures for the given time, checks every output it samples against
//! an independent oracle, prints a readable report and, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod common;
mod demux;
mod jit;
mod oracle;
mod rng;
mod stats;
mod trace;
mod units;
mod warm;

use common::{Config, Outcome};

/// End-to-end metrics, reported by every workload.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mib",
    "throughput_per_s",
    "latency_p50_us",
    "latency_p99_us",
];

/// Per-layer metrics of the traced run, with their units. A layer a
/// workload leaves idle reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("dpf.classify.ns_per_pkt", "ns/pkt"),
    ("dpf.service.batch_overhead_ns", "ns"),
    ("dpf.fallback.pkts", "count"),
    ("dpf.fallback.share_pct", "%"),
    ("dpf.fallback.ns_per_pkt", "ns/pkt"),
    ("dpf.fallback.wrong_answers", "count"),
    ("dpf.update.call_us", "us"),
    ("dpf.update.p50_us", "us"),
    ("dpf.update.p99_us", "us"),
    ("dpf.trie.build_us", "us"),
    ("dpf.codegen.us", "us"),
    ("dpf.codegen.ns_per_insn", "ns/insn"),
    ("vcode.service.build_us", "us"),
    ("vcode.service.shed", "count"),
    ("vcode.service.quarantined", "count"),
    ("vcode.engine.x64.ns_per_insn", "ns/insn"),
    ("vcode.engine.mips.ns_per_insn", "ns/insn"),
    ("vcode.engine.sparc.ns_per_insn", "ns/insn"),
    ("vcode.engine.alpha.ns_per_insn", "ns/insn"),
    ("ash.compile_us", "us"),
    ("tcc.compile_us", "us"),
    ("x64.exec.pool_hits", "count"),
    ("x64.exec.pool_misses", "count"),
    ("vcode.cache.engine.hits", "count"),
    ("vcode.cache.engine.misses", "count"),
    ("vcode.cache.engine.evictions", "count"),
    ("vcode.cache.engine.hit_ratio", "%"),
    ("vcode.cache.dpf.hits", "count"),
    ("vcode.cache.dpf.misses", "count"),
    ("vcode.cache.dpf.evictions", "count"),
    ("vcode.cache.dpf.hit_ratio", "%"),
    ("vcode.cache.ash.hits", "count"),
    ("vcode.cache.ash.misses", "count"),
    ("vcode.cache.ash.evictions", "count"),
    ("vcode.cache.ash.hit_ratio", "%"),
    ("vcode.persist.load_us", "us"),
    ("vcode.persist.redecode_us", "us"),
    ("x64.exec.adopt_us", "us"),
    ("vcode.persist.hits", "count"),
    ("vcode.persist.misses", "count"),
    ("vcode.persist.rejects", "count"),
    ("vcode.persist.not_persistable", "count"),
    ("vcode.persist.store_us", "us"),
    ("sim.cycles", "count"),
    ("gen.late_p99_us", "us"),
    ("mpf.ns_per_pkt", "ns/pkt"),
    ("pathfinder.ns_per_pkt", "ns/pkt"),
    ("dcg.ns_per_insn", "ns/insn"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

const WORKLOADS: [&str; 4] = ["demux_steady", "demux_churn", "jit_compile", "warm_restart"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse() -> (String, Config) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: ".bench_run".into(),
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value == "1",
            "--work-dir" => cfg.work_dir = value.into(),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) || !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        usage();
    }
    (workload, cfg)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metrics(out: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = out
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let (workload, cfg) = parse();
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={} available_parallelism={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out: Outcome = match workload.as_str() {
        "demux_steady" => demux::run_steady(&cfg),
        "demux_churn" => demux::run_churn(&cfg),
        "jit_compile" => jit::run(&cfg),
        _ => warm::run(&cfg),
    };
    out.e2e.insert("peak_rss_mib", (peak_rss_mib(), "MiB"));

    for (name, value, unit) in &out.named {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    for (name, (value, unit)) in &out.e2e {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
        for name in out.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "unlisted per-layer metric {name}"
            );
        }
        println!(
            "{:<32} {:>10} {:>12} {:>12}",
            "span", "count", "mean_us", "self_us"
        );
        for (name, a) in trace::aggregates() {
            println!(
                "{name:<32} {:>10} {:>12.3} {:>12.3}",
                a.count,
                a.mean_ns() / 1e3,
                a.mean_self_ns() / 1e3
            );
        }
        let path = cfg
            .work_dir
            .join("traces")
            .join(format!("{workload}-seed{}.tsv", cfg.seed));
        match trace::write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, out.layers.get(name).map_or(0.0, |m| m.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                let (v, unit) = out.e2e[name];
                (name, v, unit)
            })
            .collect()
    };
    for (name, value, unit) in &metrics {
        if cfg.trace {
            println!("{name:<34} {value:>14.4} {unit}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in END_TO_END {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in PER_LAYER {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let digest = |seed: u64| {
            let set = demux::filter_set(seed);
            let mut bytes: Vec<u8> = Vec::new();
            for f in &set.filters {
                bytes.extend(format!("{:?}", f.atoms()).bytes());
            }
            for p in demux::traffic(&set, seed) {
                bytes.extend(p);
            }
            let (units, reqs) = jit::stream(seed);
            for u in units.iter().chain(&warm::units(seed)) {
                bytes.extend(format!("{u:?}").bytes());
            }
            bytes.extend(reqs.iter().flat_map(|r| r.to_le_bytes()));
            bytes
        };
        assert_eq!(digest(42), digest(42), "same seed, same bytes");
        assert_ne!(digest(42), digest(43), "another seed, other inputs");
    }
}
