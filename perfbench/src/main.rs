//! The Wishbone benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-forest --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Runs one seeded workload for about `--seconds` seconds, checks every
//! answer, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is split into an untraced and a traced half and the metrics are
//! the per-layer ones. The full record (sample counts, quartiles, host
//! core count, code revision, seed, check failures and the self-time
//! breakdown) is printed on the line before and written under
//! `.bench_out/`, next to the traced run's spans. See `README.md`.

mod anytime;
mod checks;
mod fixtures;
mod fleet_mix;
mod layers;
mod plan_forest;
mod probe;
mod record;
mod spans;
mod util;

use record::{metrics_json, metrics_json_full, Metric, Outcome};
use util::Json;

/// Set-up bursts per run, and set-ups per burst; `setup_s` is the median
/// of all of them.
pub const SETUP_REPEATS: usize = 9;
pub const SETUP_BURST: usize = 3;

pub const WORKLOADS: [&str; 3] = ["plan-forest", "fleet-mix", "anytime-validate"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("answer_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Span names whose self time the traced run reports (`self.<name>_ms`).
pub const SELF_LAYERS: &[&str] = &[
    "answer",
    "core.prepare",
    "core.rate_search",
    "core.solve_at",
    "core.solve_at.infeasible",
    "ilp.solve",
    "ilp.presolve",
    "ilp.warm_start",
    "ilp.nodes",
    "ilp.cert_lp",
    "core.deltas_between",
    "core.apply_delta",
    "runtime.sim",
    "trace.attribute",
    "fleet.submit",
    "fleet.service",
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload never calls reports 0 with 0 samples, as do the
/// `answer_ms_p90`/`answer_ms_p99` tails when the run has fewer than
/// 100/1000 answers.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.failed_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.calibrate_s", "s"),
    ("answer_ms_p90", "ms"),
    ("answer_ms_p99", "ms"),
    ("certified_gap_mean", "ratio"),
    ("profile.ms", "ms"),
    ("ilp.root_lp.ms_p50", "ms"),
    ("ilp.root_lp.iterations", "count"),
    ("ilp.root_lp.forest_eeg_ms", "ms"),
    ("ilp.presolve.ms_p50", "ms"),
    ("ilp.bnb.nodes", "count"),
    ("ilp.bnb.simplex_iterations", "count"),
    ("ilp.bnb.warm_ratio", "ratio"),
    ("ilp.bnb.seeded_ratio", "ratio"),
    ("ilp.phase.nodes_ms", "ms"),
    ("ilp.phase.presolve_ms", "ms"),
    ("ilp.phase.warm_start_ms", "ms"),
    ("ilp.problem.vars", "count"),
    ("ilp.problem.rows", "count"),
    ("core.rate_search.probes", "count"),
    ("core.rate_search.probe_ms_p50", "ms"),
    ("core.prepare.ms_p50", "ms"),
    ("core.prepare.pin_ms", "ms"),
    ("core.prepare.tiered_build_ms", "ms"),
    ("core.prepare.merge_ms", "ms"),
    ("core.prepare.encode_ms", "ms"),
    ("core.prepare.vertices_before", "count"),
    ("core.prepare.vertices_after", "count"),
    ("core.shape_key.us_p50", "us"),
    ("core.deltas_between.us_p50", "us"),
    ("core.apply_delta.us_p50", "us"),
    ("core.solve_overhead.ms_p50", "ms"),
    ("core.approx.solve_ms_p50", "ms"),
    ("core.approx.cert_lp_ms_p50", "ms"),
    ("core.approx.cut_ms_p50", "ms"),
    ("fleet.submit_us_p50", "us"),
    ("fleet.queue_wait_us_p50", "us"),
    ("fleet.queue_wait_us_p99", "us"),
    ("fleet.service_hit_us_p50", "us"),
    ("fleet.service_hit_us_p99", "us"),
    ("fleet.service_miss_us_p50", "us"),
    ("fleet.hit_ratio", "ratio"),
    ("fleet.encodes", "count"),
    ("fleet.distinct_shapes", "count"),
    ("fleet.infeasible_ratio", "ratio"),
    ("fleet.shard_imbalance", "ratio"),
    ("fleet.phase.encode_ms", "ms"),
    ("fleet.phase.nodes_ms", "ms"),
    ("fleet.malformed_answered", "count"),
    ("runtime.sim.ms_p50", "ms"),
    ("runtime.sim.events_per_s", "1/s"),
    ("trace.attribute.ms_p50", "ms"),
    ("trace.iq_answer_ms", "ms"),
    ("trace.overcount_ms", "ms"),
    ("self.answer_ms", "ms"),
    ("self.core.prepare_ms", "ms"),
    ("self.core.rate_search_ms", "ms"),
    ("self.core.solve_at_ms", "ms"),
    ("self.core.solve_at.infeasible_ms", "ms"),
    ("self.ilp.solve_ms", "ms"),
    ("self.ilp.presolve_ms", "ms"),
    ("self.ilp.warm_start_ms", "ms"),
    ("self.ilp.nodes_ms", "ms"),
    ("self.ilp.cert_lp_ms", "ms"),
    ("self.core.deltas_between_ms", "ms"),
    ("self.core.apply_delta_ms", "ms"),
    ("self.runtime.sim_ms", "ms"),
    ("self.trace.attribute_ms", "ms"),
    ("self.fleet.submit_ms", "ms"),
    ("self.fleet.service_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = val == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Where the full record and the spans of a run go.
fn out_path(args: &Args, kind: &str, ext: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}-{kind}.{ext}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ))
}

pub fn write_spans(args: &Args, spans: &spans::Spans) {
    if let Err(e) = spans.write_jsonl(&out_path(args, "spans", "jsonl")) {
        eprintln!("perfbench: could not write spans: {e}");
    }
}

/// Order `produced` as `catalogue` lists them, filling a metric the run
/// did not produce with 0 (and 0 samples). A produced metric missing from
/// the catalogue is a benchmark bug.
fn complete(catalogue: &[(&'static str, &'static str)], produced: &[Metric]) -> Vec<Metric> {
    for m in produced {
        let known = catalogue.iter().find(|(n, _)| *n == m.name);
        assert_eq!(
            known.map(|(_, u)| *u),
            Some(m.unit),
            "metric {} ({}) is not in the catalogue",
            m.name,
            m.unit
        );
    }
    catalogue
        .iter()
        .map(|&(name, unit)| {
            produced
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                    quartiles: None,
                })
        })
        .collect()
}

/// The names `BENCHMARK.json` declares must be the ones this binary
/// reports (checked when the file is present: it is in every checkout
/// the benchmark runs from).
fn check_declared() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let names = WORKLOADS
        .iter()
        .chain(END_TO_END.iter().map(|(n, _)| n))
        .chain(PER_LAYER.iter().map(|(n, _)| n));
    let mut expected = 0;
    for n in names {
        expected += 1;
        if !text.contains(&format!("\"name\": \"{n}\"")) {
            return Err(format!("BENCHMARK.json does not declare {n}"));
        }
    }
    let declared = text.matches("\"name\":").count();
    if declared != expected {
        return Err(format!(
            "BENCHMARK.json declares {declared} names, the benchmark reports {expected}"
        ));
    }
    Ok(())
}

fn main() {
    let args = match parse_args().and_then(|a| check_declared().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out: Outcome = match args.workload.as_str() {
        "plan-forest" => plan_forest::run(&args),
        "fleet-mix" => fleet_mix::run(&args),
        _ => anytime::run(&args),
    };
    if args.trace {
        // Workload-independent layer probes, after the timed phases.
        let app11 = fixtures::eeg(11);
        let lp: Vec<f64> = (0..3).map(|_| layers::forest_eeg_root_lp(&app11)).collect();
        out.layer(Metric::median("ilp.root_lp.forest_eeg_ms", "ms", &lp, 1e3));
        out.layer(Metric::single(
            "fleet.malformed_answered",
            "count",
            probe::malformed_answered() as f64,
        ));
        out.layer(Metric::single(
            "bench.failed_ratio",
            "ratio",
            util::ratio(out.failed as f64, out.attempted as f64),
        ));
        if let Some(b) = out.breakdown.clone() {
            out.layer(Metric::single("trace.iq_answer_ms", "ms", b.answer_s * 1e3));
            out.layer(Metric::single(
                "trace.overcount_ms",
                "ms",
                (-b.remainder_s).max(0.0) * 1e3,
            ));
            for (name, v) in b.per_layer {
                let key = PER_LAYER
                    .iter()
                    .find(|(n, _)| {
                        n.strip_prefix("self.").and_then(|n| n.strip_suffix("_ms")) == Some(name)
                    })
                    .map(|(n, _)| *n)
                    .expect("every self layer has a metric");
                out.layer(Metric::single(key, "ms", v * 1e3));
            }
        }
    }
    let e2e = complete(&END_TO_END, &out.end_to_end);
    let layers = complete(PER_LAYER, &out.layers);
    let correct = out.faults.is_empty() && out.failed == 0 && out.attempted > 0;
    for f in out.faults.iter().chain(&out.failures) {
        eprintln!("perfbench: {f}");
    }
    let record = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(util::nproc() as i64)),
        ("git_rev", Json::Str(util::git_rev())),
        ("source_digest", Json::Str(util::source_digest())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        (
            "failures",
            Json::Arr(out.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "faults",
            Json::Arr(out.faults.iter().cloned().map(Json::Str).collect()),
        ),
        ("end_to_end", metrics_json_full(&e2e)),
        ("per_layer", metrics_json_full(&layers)),
    ])
    .render();
    println!("{record}");
    let path = out_path(&args, "record", "json");
    if let Err(e) =
        std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, &record))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let metrics = if args.trace { &layers } else { &e2e };
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{}", result.render());
}
