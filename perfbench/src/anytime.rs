//! `anytime-validate`: one caller, closed loop, on near-cliff forests of
//! the `approx_forest` family (4-channel caps, two wards of 2–8 motes,
//! gw-a's backhaul starved). One approx-engine `PreparedDeployment` per
//! shape is built during set-up. Each answer
//!
//! 1. morphs its shape's instance to a seeded count/budget template
//!    (`deltas_between` + `apply_delta`),
//! 2. places it with `solve_at` at a seeded rate just under the
//!    template's cliff (a placement with a certified gap),
//! 3. replays the placement in the tree simulator for a fixed simulated
//!    duration under a seeded `FailurePlan`, and
//! 4. attributes the simulated losses (`attribute_tree`).
//!
//! Branch-and-bound and the fleet service are never used.

use std::time::Instant;

use wishbone::core::deltas_between;
use wishbone::prelude::*;

use crate::checks::{check_loads, dense_optimum, OBJ_REL_TOL};
use crate::fixtures::{eeg, forest, routes, tree_topology, App, Ward, ROOMY_BACKHAUL};
use crate::layers::{prepare_stages, presolve_pass, root_lp, stage_metrics};
use crate::record::{passes, Metric, Outcome, SetupSampler};
use crate::spans::Spans;
use crate::util::{mean, peak_rss_mb, ratio, secs, Rng};
use crate::Args;

/// `(gw-a backhaul β, gw-a CPU budgeted)` per shape.
const SHAPES: [(f64, bool); 4] = [(1.0, true), (2.5, true), (1.0, false), (2.5, false)];
/// Motes in ward a and ward b of each template (template `k` is of shape
/// `k % 4`); the seed draws gw-a's starved backhaul and each answer's
/// rate. The same spread of counts for every seed keeps runs comparable,
/// and an odd template count puts the median answer inside one
/// template's cluster.
const WARD_COUNTS: [(usize, usize); 9] = [
    (2, 2),
    (2, 8),
    (8, 2),
    (8, 8),
    (4, 6),
    (6, 4),
    (3, 5),
    (5, 3),
    (4, 4),
];
/// Simulated seconds per answer.
const SIM_SECONDS: f64 = 12.0;
/// Answers checked against the dense oracle after the timed phase.
const ORACLE_SAMPLES: usize = 2;
/// Cliff bisection precision (relative).
const CLIFF_TOL: f64 = 0.02;

fn ward_a(count: usize, backhaul: f64, shape: usize) -> Ward {
    let (beta, budgeted) = SHAPES[shape];
    Ward {
        count,
        backhaul,
        beta,
        gw_cpu_budgeted: budgeted,
        link_per_cap: Platform::tmote_sky().radio.goodput_bytes_per_sec,
    }
}

fn ward_b(count: usize) -> Ward {
    Ward {
        count,
        backhaul: ROOMY_BACKHAUL,
        beta: 1.0,
        gw_cpu_budgeted: true,
        link_per_cap: Platform::tmote_sky().radio.goodput_bytes_per_sec,
    }
}

/// One seeded count/budget draw of a shape, with its cliff.
struct Template {
    shape: usize,
    dep: Deployment,
    cliff: f64,
}

struct State {
    app: App,
    preps: Vec<PreparedDeployment<'static>>,
}

fn setup() -> State {
    let app = eeg(4);
    let preps = (0..SHAPES.len())
        .map(|s| {
            let dep = forest(&[ward_a(4, 500.0, s), ward_b(4)]);
            PreparedDeployment::new_shared(
                std::sync::Arc::clone(&app.graph),
                std::sync::Arc::clone(&app.profile),
                &dep,
                &DeploymentConfig::default().approx(),
            )
            .expect("approx forests prepare")
        })
        .collect();
    State { app, preps }
}

fn morph(prep: &mut PreparedDeployment<'static>, dep: &Deployment) {
    let deltas = deltas_between(prep.deployment(), dep);
    if !deltas.is_empty() {
        prep.apply_delta(&deltas);
    }
}

/// The highest rate (to `CLIFF_TOL`) at which the approx engine places
/// `dep`, by bisection on its shape's prepared instance.
fn cliff(prep: &mut PreparedDeployment<'static>, dep: &Deployment) -> f64 {
    morph(prep, dep);
    let (mut lo, mut hi) = (0.05, 8.0);
    assert!(
        prep.solve_at(lo).is_ok(),
        "templates are placeable at x{lo}"
    );
    if prep.solve_at(hi).is_ok() {
        return hi;
    }
    while (hi - lo) / lo > CLIFF_TOL {
        let mid = 0.5 * (lo + hi);
        if prep.solve_at(mid).is_ok() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Everything one answer produced that the checks and metrics read.
struct Answer {
    template: usize,
    rate: f64,
    part: DeploymentPartition,
    secs: f64,
}

/// Per-stage times of one traced answer, seconds.
#[derive(Default)]
struct Stages {
    deltas: Vec<f64>,
    apply: Vec<f64>,
    solve: Vec<f64>,
    cert_lp: Vec<f64>,
    lp_iters: Vec<f64>,
    presolve: Vec<f64>,
    sim: Vec<f64>,
    sim_events: Vec<f64>,
    attribute: Vec<f64>,
    overhead: Vec<f64>,
    /// Time spent in the per-layer probes after each answer.
    aux_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn answer(
    st: &mut State,
    templates: &[Template],
    t: usize,
    rate: f64,
    plan: &FailurePlan,
    spans: &mut Spans,
    id: u64,
    stages: &mut Stages,
) -> Result<Answer, String> {
    let tpl = &templates[t];
    let prep = &mut st.preps[tpl.shape];
    let t0 = Instant::now();
    let root = spans.open("answer", None, id);
    let (deltas, d_id) = spans.timed("core.deltas_between", root, id, || {
        deltas_between(prep.deployment(), &tpl.dep)
    });
    let ((), a_id) = spans.timed("core.apply_delta", root, id, || {
        if !deltas.is_empty() {
            prep.apply_delta(&deltas);
        }
    });
    let (part, s_id) = spans.timed("core.solve_at", root, id, || prep.solve_at(rate));
    let part = part.map_err(|e| format!("template {t} at x{rate}: {e}"))?;
    let topo = tree_topology(&tpl.dep);
    let routes = routes(&part, &st.app);
    let cfg = SimulationConfig {
        duration_s: SIM_SECONDS,
        rate_multiplier: rate,
        ..SimulationConfig::motes(1, id)
    };
    let (report, m_id) = spans.timed("runtime.sim", root, id, || {
        simulate_deployment_tree_with_failures(&st.app.graph, &topo, &routes, &cfg, plan)
    });
    let (attr, r_id) = spans.timed("trace.attribute", root, id, || {
        attribute_tree(&report, &topo)
    });
    spans.close(root);
    let secs_total = secs(t0);
    if !(0.0..=1.0).contains(&attr.goodput_ratio) {
        return Err(format!(
            "attribution goodput {} out of range",
            attr.goodput_ratio
        ));
    }
    if spans.enabled() {
        let dur = |i: crate::spans::SpanId| i.map_or(0.0, |i| spans.spans[i].dur());
        let (d_s, a_s, s_s, m_s, r_s) = (dur(d_id), dur(a_id), dur(s_id), dur(m_id), dur(r_id));
        // The certificate LP, re-solved on the instance as the answer left
        // it, lays out the part of `solve_at` the cut did not take.
        let aux = Instant::now();
        let (lp_s, iters) = root_lp(prep.problem());
        stages.presolve.push(presolve_pass(prep.problem()).0);
        stages.aux_s += secs(aux);
        spans.derived("ilp.cert_lp", s_id, id, spans.start_of(s_id), lp_s);
        stages.deltas.push(d_s);
        stages.apply.push(a_s);
        stages.solve.push(s_s);
        stages.cert_lp.push(lp_s);
        stages.lp_iters.push(iters as f64);
        stages.sim.push(m_s);
        stages
            .sim_events
            .push(report.stats().events_processed as f64);
        stages.attribute.push(r_s);
        stages
            .overhead
            .push(s_s - part.ilp_stats.total_time.as_secs_f64());
    }
    Ok(Answer {
        template: t,
        rate,
        part,
        secs: secs_total,
    })
}

/// A seeded failure plan over the forest's sites (1 = gw-a, 2 = ward-a,
/// 3 = gw-b, 4 = ward-b): gw-b reboots once and ward-a's uplink fades.
fn failure_plan(rng: &mut Rng) -> FailurePlan {
    let reboot = rng.range(0.0, 0.6 * SIM_SECONDS);
    let fade = rng.range(0.0, 0.5 * SIM_SECONDS);
    FailurePlan {
        failures: vec![
            Failure::GatewayReboot {
                site: 3,
                start_s: reboot,
                end_s: reboot + 0.2 * SIM_SECONDS,
            },
            Failure::LossyUplink {
                site: 2,
                start_s: fade,
                end_s: fade + 0.4 * SIM_SECONDS,
                loss_prob: rng.range(0.1, 0.3),
            },
        ],
        seed: rng.next_u64(),
    }
}

#[allow(clippy::too_many_arguments)]
fn timed_phase(
    st: &mut State,
    templates: &[Template],
    rng: &mut Rng,
    budget: f64,
    spans: &mut Spans,
    stages: &mut Stages,
    out: &mut Outcome,
    answers: &mut Vec<Answer>,
    between: impl FnMut(f64) -> f64,
) -> (usize, f64) {
    let mut draws = rng.fork(1);
    let (done, elapsed) = passes(
        templates.len(),
        rng,
        budget,
        |tpl| {
            let rate = draws.range(0.90, 0.98) * templates[tpl].cliff;
            let plan = failure_plan(&mut draws);
            let id = draws.next_u64();
            answer(st, templates, tpl, rate, &plan, spans, id, stages)
        },
        between,
        out,
    );
    let n = done.len();
    answers.extend(done);
    (n, elapsed)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut st = setup();
    out.layer(Metric::single("profile.ms", "ms", st.app.profile_s * 1e3));

    // Calibration (input generation, not set-up): seeded templates and
    // their cliffs.
    let t = Instant::now();
    let mut rng = Rng::new(args.seed).fork(1);
    let mut templates = Vec::new();
    for (k, &(count_a, count_b)) in WARD_COUNTS.iter().enumerate() {
        let shape = k % SHAPES.len();
        // Stratified over 300–700 B/s: template k draws from the k-th of
        // nine equal bins, so every seed covers the range alike.
        let bin = 400.0 / WARD_COUNTS.len() as f64;
        let backhaul = 300.0 + bin * (k as f64 + rng.unit());
        let dep = forest(&[ward_a(count_a, backhaul, shape), ward_b(count_b)]);
        let c = cliff(&mut st.preps[shape], &dep);
        templates.push(Template {
            shape,
            dep,
            cliff: c,
        });
    }
    out.layer(Metric::single("bench.calibrate_s", "s", secs(t)));

    let mut rng = Rng::new(args.seed).fork(2);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut answers = Vec::new();
    let mut stages = Stages::default();
    let mut setups = SetupSampler::new(budget, setup, drop);
    let (n, elapsed) = timed_phase(
        &mut st,
        &templates,
        &mut rng,
        budget,
        &mut Spans::new(false),
        &mut stages,
        &mut out,
        &mut answers,
        |elapsed| {
            setups.tick(elapsed);
            setups.spent_s
        },
    );
    out.e2e(Metric::single("peak_rss_mb", "MiB", peak_rss_mb()));
    out.e2e(setups.finish());
    let lat: Vec<f64> = answers.iter().map(|a| a.secs).collect();
    let untraced_rate = n as f64 / elapsed;
    out.e2e(Metric::single("answers_per_s", "1/s", untraced_rate));
    out.e2e(Metric::median("answer_ms_p50", "ms", &lat, 1e3));
    if lat.len() >= 100 {
        out.layer(Metric::quantile("answer_ms_p90", "ms", &lat, 0.9, 1e3));
    }
    if lat.len() >= 1000 {
        out.layer(Metric::quantile("answer_ms_p99", "ms", &lat, 0.99, 1e3));
    }

    if args.trace {
        let mut spans = Spans::new(true);
        let mut traced = Vec::new();
        let (n, elapsed) = timed_phase(
            &mut st,
            &templates,
            &mut rng,
            args.seconds / 2.0,
            &mut spans,
            &mut stages,
            &mut out,
            &mut traced,
            |_| 0.0,
        );
        out.layer(Metric::single(
            "bench.trace_overhead_ratio",
            "ratio",
            ratio(n as f64 / (elapsed - stages.aux_s), untraced_rate),
        ));
        let s = &stages;
        out.layer(Metric::median(
            "core.deltas_between.us_p50",
            "us",
            &s.deltas,
            1e6,
        ));
        out.layer(Metric::median(
            "core.apply_delta.us_p50",
            "us",
            &s.apply,
            1e6,
        ));
        out.layer(Metric::median(
            "core.approx.solve_ms_p50",
            "ms",
            &s.solve,
            1e3,
        ));
        out.layer(Metric::median(
            "core.approx.cert_lp_ms_p50",
            "ms",
            &s.cert_lp,
            1e3,
        ));
        let cut: Vec<f64> = s.solve.iter().zip(&s.cert_lp).map(|(a, b)| a - b).collect();
        out.layer(Metric::median("core.approx.cut_ms_p50", "ms", &cut, 1e3));
        out.layer(Metric::median(
            "core.solve_overhead.ms_p50",
            "ms",
            &s.overhead,
            1e3,
        ));
        out.layer(Metric::median("ilp.root_lp.ms_p50", "ms", &s.cert_lp, 1e3));
        out.layer(Metric::median(
            "ilp.root_lp.iterations",
            "count",
            &s.lp_iters,
            1.0,
        ));
        out.layer(Metric::median(
            "ilp.presolve.ms_p50",
            "ms",
            &s.presolve,
            1e3,
        ));
        out.layer(Metric::median("runtime.sim.ms_p50", "ms", &s.sim, 1e3));
        out.layer(Metric::single(
            "runtime.sim.events_per_s",
            "1/s",
            ratio(s.sim_events.iter().sum(), s.sim.iter().sum()),
        ));
        out.layer(Metric::median(
            "trace.attribute.ms_p50",
            "ms",
            &s.attribute,
            1e3,
        ));
        out.breakdown = Some(spans.breakdown("answer", crate::SELF_LAYERS));
        crate::write_spans(args, &spans);

        let cfg = DeploymentConfig::default().approx();
        let mut prep_s = Vec::new();
        let mut stage_list = Vec::new();
        for (shape, prep) in st.preps.iter().enumerate() {
            let t = Instant::now();
            let fresh =
                PreparedDeployment::new(&st.app.graph, &st.app.profile, prep.deployment(), &cfg);
            prep_s.push(secs(t));
            drop(fresh);
            let stage = prepare_stages(&st.app, prep.deployment(), &cfg);
            if (stage.vars, stage.rows) != prep.problem_size() {
                out.faults.push(format!(
                    "prepare stages of shape {shape} built {}x{}, the prepared instance {:?}",
                    stage.vars,
                    stage.rows,
                    prep.problem_size()
                ));
            }
            stage_list.push(stage);
        }
        out.layer(Metric::median("core.prepare.ms_p50", "ms", &prep_s, 1e3));
        stage_metrics(&mut out, &stage_list);
        answers.extend(traced);
    }

    let gaps: Vec<f64> = answers
        .iter()
        .map(|a| a.part.certified_gap.unwrap_or(f64::NAN))
        .collect();
    if gaps.iter().any(|g| !(g.is_finite() && *g >= 0.0)) {
        out.fail("an approx answer carries no finite certificate".into());
    }
    out.layer(Metric::single("certified_gap_mean", "ratio", mean(&gaps)));

    // Post-run checks: budgets on every answer; the certificate against
    // the dense optimum on a seeded sample.
    for a in &answers {
        if let Err(e) = check_loads(&st.app, &templates[a.template].dep, &a.part, a.rate) {
            out.fail(format!("template {}: {e}", a.template));
        }
    }
    let mut crng = Rng::new(args.seed).fork(3);
    for _ in 0..ORACLE_SAMPLES.min(answers.len()) {
        let a = &answers[crng.int(0, answers.len() - 1)];
        let dep = &templates[a.template].dep;
        match dense_optimum(&st.app, dep, &DeploymentConfig::default(), a.rate) {
            Ok(Some(opt)) => {
                let obj = a.part.objective;
                let scale = obj.abs().max(f64::EPSILON);
                let true_gap = (obj - opt) / scale;
                let cert = a.part.certified_gap.unwrap_or(f64::NAN);
                if obj < opt - OBJ_REL_TOL * obj.abs().max(1.0) {
                    out.fail(format!("approx objective {obj} beats the optimum {opt}"));
                } else if cert < true_gap - 1e-9 || cert.is_nan() {
                    out.fail(format!(
                        "certified gap {cert} below the true gap {true_gap}"
                    ));
                }
            }
            Ok(None) => out.fail(format!("oracle: x{} is infeasible", a.rate)),
            Err(e) => out.fail(e),
        }
    }
    out
}
