//! `plan-forest`: one caller, closed loop. Each answer is the §4.3 rate
//! search (`max_sustainable_rate_deployment`, exact engine) on a seeded
//! EEG forest; about 97% of it is cold root LPs.
//!
//! The pool is stratified so every seed draws the same structural mix
//! (channels × wards) and only counts and backhauls vary: cost depends
//! on structure, so runs of different seeds stay comparable. The timed
//! phase runs whole passes over the pool in a seeded order, so every run
//! answers each instance equally often.

use std::time::{Duration, Instant};

use wishbone::prelude::*;

use crate::checks::{check_loads, check_objective, dense_optimum};
use crate::fixtures::{eeg, forest, App, Ward, ROOMY_BACKHAUL};
use crate::layers::{prepare_stages, presolve_pass, root_lp};
use crate::record::{passes, Metric, Outcome, SetupSampler};
use crate::spans::Spans;
use crate::util::{peak_rss_mb, ratio, secs, Rng};
use crate::Args;

/// `(channels, wards)` of every pool instance: each channel count (2–4)
/// and each ward count (1–3) appears, in the three classes whose LPs are
/// of a size (700–1100 rows) and whose answers cost about the same
/// (0.4–0.7 s on a 2-core host). A pool of like costs keeps the median
/// answer a run-level figure; a mix of 0.1 s and 2 s answers would put it
/// on whichever instance happens to sort into the middle.
const POOL: [(usize, usize); 9] = [
    (4, 1),
    (3, 2),
    (2, 3),
    (4, 1),
    (3, 2),
    (2, 3),
    (4, 1),
    (3, 2),
    (2, 3),
];
const HI: f64 = 8.0;
const TOL: f64 = 0.02;
/// Largest LP (rows) the dense oracle re-solves.
const ORACLE_MAX_ROWS: usize = 800;
const ORACLE_SAMPLES: usize = 2;

/// forest_eeg's solver configuration.
fn config() -> DeploymentConfig {
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.rel_gap = 0.025;
    cfg.ilp.time_limit = Some(Duration::from_secs(15));
    cfg
}

struct Instance {
    app: usize,
    dep: Deployment,
}

struct State {
    apps: Vec<App>,
    pool: Vec<Instance>,
}

fn setup(seed: u64) -> State {
    let apps: Vec<App> = (2..=4).map(eeg).collect();
    let mut rng = Rng::new(seed).fork(1);
    // Which wards are starved alternates over the pool, the same for
    // every seed; the seed draws counts and starved budgets.
    let pool = POOL
        .iter()
        .enumerate()
        .map(|(i, &(channels, wards))| {
            let wards: Vec<Ward> = (0..wards)
                .map(|w| {
                    let count = rng.int(2, 20);
                    let backhaul = if (i + w) % 2 == 0 {
                        rng.range(100.0, 500.0)
                    } else {
                        ROOMY_BACKHAUL
                    };
                    Ward::eeg(count, backhaul)
                })
                .collect();
            Instance {
                app: channels - 2,
                dep: forest(&wards),
            }
        })
        .collect();
    State { apps, pool }
}

/// One answer as the timed loop sees it.
struct Answer {
    inst: usize,
    secs: f64,
    rate: f64,
    objective: f64,
    evaluations: u32,
    /// The placement, kept for the post-run checks (untraced answers).
    part: Option<DeploymentPartition>,
}

/// The rate search replayed probe by probe through the public
/// `PreparedDeployment` API, with a span around every call: prepare,
/// then the search skeleton of `max_sustainable_rate_deployment` (a
/// vanishing floor rate, doubling to the first infeasible probe, then
/// bisection to `TOL`). Returns `(rate, objective, evaluations)`.
fn traced_search(
    st: &State,
    inst: &Instance,
    spans: &mut Spans,
    answer: u64,
    root: crate::spans::SpanId,
    probes: &mut Vec<IlpProbe>,
) -> Result<(f64, f64, u32, Problem), String> {
    let app = &st.apps[inst.app];
    let cfg = config();
    let (prep, _) = spans.timed("core.prepare", root, answer, || {
        PreparedDeployment::new(&app.graph, &app.profile, &inst.dep, &cfg)
    });
    let mut prep = prep.map_err(|e| format!("prepare: {e}"))?;
    let search = spans.open("core.rate_search", root, answer);
    let mut evals = 0u32;
    let mut probe = |rate: f64, spans: &mut Spans| -> Result<Option<f64>, String> {
        evals += 1;
        let id = spans.open("core.solve_at", search, answer);
        let t = Instant::now();
        let out = prep.solve_at(rate);
        let wall = secs(t);
        spans.close(id);
        match out {
            Ok(p) => {
                spans.ilp(&p.ilp_stats, id, answer, spans.start_of(id));
                probes.push(IlpProbe::from_stats(&p.ilp_stats, wall));
                Ok(Some(p.objective))
            }
            Err(PartitionError::Infeasible) => {
                if let Some(i) = id {
                    spans.spans[i].name = "core.solve_at.infeasible";
                }
                Ok(None)
            }
            Err(e) => Err(format!("probe at x{rate}: {e}")),
        }
    };
    let mut lo = HI * 2f64.powi(-24);
    let mut best = probe(lo, spans)?.ok_or("infeasible at the floor rate")?;
    let mut hi = lo;
    loop {
        let next = (hi * 2.0).min(HI);
        match probe(next, spans)? {
            Some(obj) => {
                lo = next;
                best = obj;
                hi = next;
                if (next - HI).abs() < f64::EPSILON * HI {
                    break;
                }
            }
            None => {
                hi = next;
                break;
            }
        }
    }
    while (hi - lo) / lo > TOL {
        let mid = 0.5 * (lo + hi);
        match probe(mid, spans)? {
            Some(obj) => {
                lo = mid;
                best = obj;
            }
            None => hi = mid,
        }
    }
    spans.close(search);
    Ok((lo, best, evals, prep.problem().clone()))
}

/// IlpStats of one feasible probe, plus its `solve_at` wall time.
pub struct IlpProbe {
    pub wall_s: f64,
    pub total_s: f64,
    pub nodes: u64,
    pub iterations: u64,
    pub warm: u64,
    pub cold: u64,
    pub seeded: bool,
    pub presolve_s: f64,
    pub warm_start_s: f64,
    pub nodes_s: f64,
}

impl IlpProbe {
    pub fn from_stats(s: &wishbone::ilp::IlpStats, wall_s: f64) -> Self {
        IlpProbe {
            wall_s,
            total_s: s.total_time.as_secs_f64(),
            nodes: s.nodes,
            iterations: s.simplex_iterations,
            warm: s.warm_starts,
            cold: s.cold_starts,
            seeded: s.seeded,
            presolve_s: s.phase_times.presolve_s,
            warm_start_s: s.phase_times.warm_start_s,
            nodes_s: s.phase_times.nodes_s,
        }
    }
}

/// The `ilp.*` and `core.solve_overhead` metrics over a set of probes;
/// phase times are per answer (`answers` of them).
pub fn ilp_metrics(out: &mut Outcome, probes: &[IlpProbe], answers: usize) {
    let f = |g: &dyn Fn(&IlpProbe) -> f64| probes.iter().map(g).collect::<Vec<f64>>();
    out.layer(Metric::mean(
        "ilp.bnb.nodes",
        "count",
        &f(&|p| p.nodes as f64),
    ));
    out.layer(Metric::mean(
        "ilp.bnb.simplex_iterations",
        "count",
        &f(&|p| p.iterations as f64),
    ));
    let warm: u64 = probes.iter().map(|p| p.warm).sum();
    let cold: u64 = probes.iter().map(|p| p.cold).sum();
    out.layer(Metric::single(
        "ilp.bnb.warm_ratio",
        "ratio",
        ratio(warm as f64, (warm + cold) as f64),
    ));
    out.layer(Metric::mean(
        "ilp.bnb.seeded_ratio",
        "ratio",
        &f(&|p| f64::from(u8::from(p.seeded))),
    ));
    let per_answer = |v: f64| ratio(v, answers as f64) * 1e3;
    out.layer(Metric::single(
        "ilp.phase.nodes_ms",
        "ms",
        per_answer(probes.iter().map(|p| p.nodes_s).sum()),
    ));
    out.layer(Metric::single(
        "ilp.phase.presolve_ms",
        "ms",
        per_answer(probes.iter().map(|p| p.presolve_s).sum()),
    ));
    out.layer(Metric::single(
        "ilp.phase.warm_start_ms",
        "ms",
        per_answer(probes.iter().map(|p| p.warm_start_s).sum()),
    ));
    out.layer(Metric::median(
        "core.solve_overhead.ms_p50",
        "ms",
        &f(&|p| p.wall_s - p.total_s),
        1e3,
    ));
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let st = setup(args.seed);
    let cfg = config();
    let mut rng = Rng::new(args.seed).fork(2);

    // Untraced answers: the library entry point itself.
    let untimed_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setups = SetupSampler::new(untimed_budget, || setup(args.seed), drop);
    let (answers, elapsed) = passes(
        st.pool.len(),
        &mut rng,
        untimed_budget,
        |i| {
            let inst = &st.pool[i];
            let app = &st.apps[inst.app];
            let t = Instant::now();
            let r =
                max_sustainable_rate_deployment(&app.graph, &app.profile, &inst.dep, &cfg, HI, TOL);
            let dt = secs(t);
            let r = r
                .map_err(|e| format!("rate search: {e}"))?
                .ok_or("infeasible at every rate")?;
            if r.unproven.is_some() {
                return Err(format!("unproven above x{}", r.rate));
            }
            Ok(Answer {
                inst: i,
                secs: dt,
                rate: r.rate,
                objective: r.partition.objective,
                evaluations: r.evaluations,
                part: Some(r.partition),
            })
        },
        |elapsed| {
            setups.tick(elapsed);
            setups.spent_s
        },
        &mut out,
    );
    out.e2e(Metric::single("peak_rss_mb", "MiB", peak_rss_mb()));
    out.e2e(setups.finish());
    let lat: Vec<f64> = answers.iter().map(|a| a.secs).collect();
    let untraced_rate = answers.len() as f64 / elapsed;
    out.e2e(Metric::single("answers_per_s", "1/s", untraced_rate));
    out.e2e(Metric::median("answer_ms_p50", "ms", &lat, 1e3));
    if lat.len() >= 100 {
        out.layer(Metric::quantile("answer_ms_p90", "ms", &lat, 0.9, 1e3));
    }

    // Every placement within its budgets; repeated answers on one
    // instance bit-identical.
    let mut first: Vec<Option<(f64, f64)>> = vec![None; st.pool.len()];
    for a in &answers {
        let inst = &st.pool[a.inst];
        if let Some(part) = &a.part {
            if let Err(e) = check_loads(&st.apps[inst.app], &inst.dep, part, a.rate) {
                out.fail(format!("instance {}: {e}", a.inst));
            }
        }
        match first[a.inst] {
            None => first[a.inst] = Some((a.rate, a.objective)),
            Some(prev) if prev != (a.rate, a.objective) => out.fail(format!(
                "instance {}: answers differ between repeats",
                a.inst
            )),
            Some(_) => {}
        }
    }

    // The dense oracle on a seeded sample of the small instances.
    let mut crng = Rng::new(args.seed).fork(3);
    let mut candidates: Vec<usize> = (0..st.pool.len()).filter(|&i| first[i].is_some()).collect();
    crng.shuffle(&mut candidates);
    let mut oracled = 0;
    for i in candidates {
        if oracled == ORACLE_SAMPLES {
            break;
        }
        let inst = &st.pool[i];
        let app = &st.apps[inst.app];
        let (rate, obj) = first[i].expect("filtered to answered instances");
        let prep = PreparedDeployment::new(&app.graph, &app.profile, &inst.dep, &cfg)
            .expect("answered instances prepare");
        if prep.problem_size().1 > ORACLE_MAX_ROWS {
            continue;
        }
        oracled += 1;
        match dense_optimum(app, &inst.dep, &cfg, rate) {
            Ok(Some(opt)) => {
                if let Err(e) = check_objective(obj, opt, cfg.ilp.rel_gap) {
                    out.fail(format!("instance {i}: {e}"));
                }
            }
            Ok(None) => out.fail(format!("instance {i}: oracle says x{rate} is infeasible")),
            Err(e) => out.fail(format!("instance {i}: {e}")),
        }
    }

    out.layer(Metric::mean(
        "core.rate_search.probes",
        "count",
        &answers
            .iter()
            .map(|a| f64::from(a.evaluations))
            .collect::<Vec<_>>(),
    ));
    out.layer(Metric::median(
        "core.rate_search.probe_ms_p50",
        "ms",
        &answers
            .iter()
            .map(|a| a.secs / f64::from(a.evaluations))
            .collect::<Vec<_>>(),
        1e3,
    ));
    out.layer(Metric::single(
        "profile.ms",
        "ms",
        st.apps.iter().map(|a| a.profile_s).sum::<f64>() * 1e3,
    ));

    if args.trace {
        traced(args, &st, &first, untraced_rate, &mut rng, &mut out);
    }
    out
}

fn traced(
    args: &Args,
    st: &State,
    first: &[Option<(f64, f64)>],
    untraced_rate: f64,
    rng: &mut Rng,
    out: &mut Outcome,
) {
    let cfg = config();
    let mut spans = Spans::new(true);
    let mut probes = Vec::new();
    let mut aux_lp = Vec::new();
    let mut aux_iters = Vec::new();
    let mut aux_presolve = Vec::new();
    let mut stages = Vec::new();
    let mut prepare_s = Vec::new();
    let mut next_id = 0u64;
    let mut aux_s = 0.0;
    let (answers, elapsed) = passes(
        st.pool.len(),
        rng,
        args.seconds / 2.0,
        |i| {
            let inst = &st.pool[i];
            let app = &st.apps[inst.app];
            next_id += 1;
            let id = next_id;
            let root = spans.open("answer", None, id);
            let t = Instant::now();
            let r = traced_search(st, inst, &mut spans, id, root, &mut probes);
            let dt = secs(t);
            spans.close(root);
            let (rate, objective, evaluations, problem) = r?;
            // Per-layer probes outside the answer; their time is kept out
            // of the traced answer rate.
            let aux = Instant::now();
            let (lp_s, iters) = root_lp(&problem);
            aux_lp.push(lp_s);
            aux_iters.push(iters as f64);
            aux_presolve.push(presolve_pass(&problem).0);
            let stage = prepare_stages(app, &inst.dep, &cfg);
            aux_s += secs(aux);
            if (stage.vars, stage.rows) != (problem.num_vars(), problem.num_constraints()) {
                return Err(format!(
                    "prepare stages built {}x{}, the prepared instance {}x{}",
                    stage.vars,
                    stage.rows,
                    problem.num_vars(),
                    problem.num_constraints()
                ));
            }
            stages.push(stage);
            if let Some(prev) = first[i] {
                if prev != (rate, objective) {
                    return Err(format!(
                        "replayed search found x{rate} / {objective}, the library {prev:?}"
                    ));
                }
            }
            if let Some(r) = root {
                prepare_s.push(spans.spans[r + 1].dur());
            }
            Ok(Answer {
                inst: i,
                secs: dt,
                rate,
                objective,
                evaluations,
                part: None,
            })
        },
        |_| 0.0,
        out,
    );
    let traced_rate = answers.len() as f64 / (elapsed - aux_s);
    out.layer(Metric::single(
        "bench.trace_overhead_ratio",
        "ratio",
        ratio(traced_rate, untraced_rate),
    ));
    ilp_metrics(out, &probes, answers.len());
    out.layer(Metric::median("ilp.root_lp.ms_p50", "ms", &aux_lp, 1e3));
    out.layer(Metric::median(
        "ilp.root_lp.iterations",
        "count",
        &aux_iters,
        1.0,
    ));
    out.layer(Metric::median(
        "ilp.presolve.ms_p50",
        "ms",
        &aux_presolve,
        1e3,
    ));
    out.layer(Metric::median("core.prepare.ms_p50", "ms", &prepare_s, 1e3));
    crate::layers::stage_metrics(out, &stages);
    out.breakdown = Some(spans.breakdown("answer", crate::SELF_LAYERS));
    crate::write_spans(args, &spans);
}
