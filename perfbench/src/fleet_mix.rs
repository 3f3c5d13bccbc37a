//! `fleet-mix`: a closed loop keeping `nproc` requests in flight against
//! a `FleetServer` of `nproc` workers (default config: cache on,
//! deterministic). Latency runs from `submit` to the matching `recv`, so
//! queueing counts. The hot set (14 shapes: speech MFCC over binary,
//! tiered and 2-ward forest topologies, 1- and 2-channel EEG over binary
//! and tiered, each at β ∈ {1, 2.5}) is warmed during
//! set-up. Every request draws its own leaf counts, finite uplink budgets
//! and rate, so hits take the delta path; about 5% carry a never-seen
//! shape (a fresh β) and about 5% ask for a rate past the cliff and must
//! come back `Infeasible`.
//!
//! Requests are well-formed only: a malformed one (rate 0, NaN budget,
//! zero count) can panic a worker and hang the service, which the
//! known-defect probe in `probe.rs` reports separately.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use wishbone::core::{deltas_between, shape_key};
use wishbone::prelude::*;

use crate::checks::{check_loads, check_objective, dense_optimum};
use crate::fixtures::{forest, speech, App, Ward};
use crate::layers::{prepare_stages, stage_metrics};
use crate::plan_forest::{ilp_metrics, IlpProbe};
use crate::record::{Metric, Outcome, SetupSampler};
use crate::spans::Spans;
use crate::util::{nproc, peak_rss_mb, ratio, secs, Rng};
use crate::Args;

const NEW_SHAPE_P: f64 = 0.05;
const PAST_CLIFF_P: f64 = 0.05;
/// One response in this many is kept for the post-run checks.
const SAMPLE_EVERY: u64 = 64;
const MAX_SAMPLES: usize = 24;
const MIN_COUNT: usize = 2;
const MAX_COUNT: usize = 16;
const MIN_BUDGET: f64 = 600.0;
const MAX_BUDGET: f64 = 4_000.0;
/// The rate every past-the-cliff request asks for: far beyond what any
/// shape's pinned mote operators can sustain.
const PAST_CLIFF_RATE: f64 = 1_000.0;
const MOTE_LINK: f64 = 3_000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Topo {
    Binary,
    Tiered,
    Forest,
}

/// A structural family: app (0 = speech, 1/2 = EEG at 1/2 channels) ×
/// topology. Shapes add β.
const FAMILIES: [(usize, Topo); 7] = [
    (0, Topo::Binary),
    (0, Topo::Tiered),
    (0, Topo::Forest),
    (1, Topo::Binary),
    (1, Topo::Tiered),
    (2, Topo::Binary),
    (2, Topo::Tiered),
];
const HOT_BETAS: [f64; 2] = [1.0, 2.5];

fn leaves(topo: Topo) -> usize {
    if topo == Topo::Forest {
        2
    } else {
        1
    }
}

/// One request's deployment: `counts` and `budgets` per leaf.
fn deployment(topo: Topo, beta: f64, counts: &[usize], budgets: &[f64]) -> Deployment {
    let mote = Platform::tmote_sky();
    match topo {
        Topo::Binary => {
            let mut dep = Deployment::new(Site::server("server", &Platform::server()));
            let root = dep.root();
            dep.attach(
                root,
                Site::new("motes", &mote).with_count(counts[0]),
                LinkSpec {
                    beta,
                    net_budget: budgets[0],
                },
            );
            dep
        }
        Topo::Tiered | Topo::Forest => forest(
            &counts
                .iter()
                .zip(budgets)
                .map(|(&count, &backhaul)| Ward {
                    count,
                    backhaul,
                    beta,
                    gw_cpu_budgeted: true,
                    link_per_cap: MOTE_LINK,
                })
                .collect::<Vec<_>>(),
        ),
    }
}

struct State {
    apps: Vec<App>,
    server: FleetServer,
    /// Requests submitted over the server's lifetime (warm-up included).
    submitted: u64,
    /// Distinct shapes submitted (warm-up included).
    shapes: u64,
}

fn setup(workers: usize, safe: Option<&[f64]>) -> (State, Vec<f64>) {
    let apps = vec![speech(), crate::fixtures::eeg(1), crate::fixtures::eeg(2)];
    // The highest rate every draw of a family sustains: its worst case
    // (most devices, least budget), since more devices and less budget
    // only ever remove placements.
    let safe: Vec<f64> = match safe {
        Some(s) => s.to_vec(),
        None => FAMILIES
            .iter()
            .map(|&(app, topo)| {
                let n = leaves(topo);
                let dep = deployment(topo, 1.0, &vec![MAX_COUNT; n], &vec![MIN_BUDGET; n]);
                let a = &apps[app];
                max_sustainable_rate_deployment(
                    &a.graph,
                    &a.profile,
                    &dep,
                    &DeploymentConfig::default(),
                    8.0,
                    0.02,
                )
                .expect("calibration solves")
                .expect("every family is feasible at some rate")
                .rate
            })
            .collect(),
    };
    let mut server = FleetServer::with_config(FleetConfig {
        workers,
        ..FleetConfig::default()
    });
    let mut submitted = 0;
    for (f, &(app, topo)) in FAMILIES.iter().enumerate() {
        for &beta in &HOT_BETAS {
            let n = leaves(topo);
            let a = &apps[app];
            submitted += 1;
            server.submit(FleetRequest {
                id: u64::MAX - submitted,
                graph: Arc::clone(&a.graph),
                profile: Arc::clone(&a.profile),
                deployment: deployment(topo, beta, &vec![MIN_COUNT; n], &vec![MAX_BUDGET; n]),
                config: DeploymentConfig::default(),
                rate: 0.5 * safe[f],
            });
        }
    }
    let warm = server.drain();
    assert!(
        warm.iter().all(|r| r.result.is_ok()),
        "the hot set warms feasibly"
    );
    let shapes = submitted;
    (
        State {
            apps,
            server,
            submitted,
            shapes,
        },
        safe,
    )
}

/// What the generator knows about a request.
#[derive(Clone)]
struct Meta {
    family: usize,
    /// Hot-shape index (`family * 2 + β slot`), `None` for a new shape.
    hot: Option<usize>,
    expect_feasible: bool,
    rate: f64,
    sample: bool,
}

struct Generator {
    rng: Rng,
    safe: Vec<f64>,
    next_id: u64,
}

impl Generator {
    fn next(&mut self, st: &mut State) -> (FleetRequest, Meta) {
        let r = &mut self.rng;
        let family = r.int(0, FAMILIES.len() - 1);
        let (app, topo) = FAMILIES[family];
        let (beta, hot) = if r.chance(NEW_SHAPE_P) {
            st.shapes += 1;
            (r.range(1.0, 4.0), None)
        } else {
            let slot = r.int(0, 1);
            (HOT_BETAS[slot], Some(family * 2 + slot))
        };
        let n = leaves(topo);
        let counts: Vec<usize> = (0..n).map(|_| r.int(MIN_COUNT, MAX_COUNT)).collect();
        let budgets: Vec<f64> = (0..n).map(|_| r.range(MIN_BUDGET, MAX_BUDGET)).collect();
        let expect_feasible = !r.chance(PAST_CLIFF_P);
        let rate = if expect_feasible {
            r.range(0.2, 1.0) * self.safe[family]
        } else {
            PAST_CLIFF_RATE
        };
        let sample = r.next_u64().is_multiple_of(SAMPLE_EVERY);
        self.next_id += 1;
        let a = &st.apps[app];
        let req = FleetRequest {
            id: self.next_id,
            graph: Arc::clone(&a.graph),
            profile: Arc::clone(&a.profile),
            deployment: deployment(topo, beta, &counts, &budgets),
            config: DeploymentConfig::default(),
            rate,
        };
        (
            req,
            Meta {
                family,
                hot,
                expect_feasible,
                rate,
                sample,
            },
        )
    }
}

/// One answered request.
struct Done {
    latency_s: f64,
    service_s: f64,
    submit_s: f64,
    hit: bool,
    infeasible: bool,
    probe: Option<IlpProbe>,
}

/// A sampled request kept for the post-run checks.
struct Sample {
    app: usize,
    dep: Deployment,
    rate: f64,
    result: Result<DeploymentPartition, PartitionError>,
}

struct Pending {
    req_dep: Option<Deployment>,
    meta: Meta,
    t0: Instant,
    submit_s: f64,
    span: crate::spans::SpanId,
}

/// Client-side layer timings of the traced phase.
#[derive(Default)]
struct Aux {
    shape_key_s: Vec<f64>,
    deltas_s: Vec<f64>,
    apply_s: Vec<f64>,
}

/// Run the closed loop for `budget` seconds, then drain. Returns the
/// answers and the elapsed time.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    st: &mut State,
    gen: &mut Generator,
    budget: f64,
    spans: &mut Spans,
    mirrors: &mut [PreparedDeployment<'static>],
    aux: &mut Aux,
    samples: &mut Vec<Sample>,
    out: &mut Outcome,
    mut between: impl FnMut(f64) -> f64,
) -> (Vec<Done>, f64) {
    let window = nproc();
    let mut spent = 0.0;
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut done = Vec::new();
    let t = Instant::now();
    let mut submit =
        |st: &mut State, spans: &mut Spans, aux: &mut Aux, pending: &mut HashMap<u64, Pending>| {
            let (req, meta) = gen.next(st);
            if spans.enabled() {
                let (_, dt) =
                    timed(|| shape_key(&req.graph, &req.profile, &req.deployment, &req.config));
                aux.shape_key_s.push(dt);
                if let Some(h) = meta.hot {
                    let mirror = &mut mirrors[h];
                    let (deltas, dt) =
                        timed(|| deltas_between(mirror.deployment(), &req.deployment));
                    aux.deltas_s.push(dt);
                    let ((), dt) = timed(|| mirror.apply_delta(&deltas));
                    aux.apply_s.push(dt);
                }
            }
            let id = req.id;
            let keep = meta.sample.then(|| req.deployment.clone());
            let span = spans.open("answer", None, id);
            let t0 = Instant::now();
            let sub = spans.open("fleet.submit", span, id);
            st.server.submit(req);
            spans.close(sub);
            let submit_s = secs(t0);
            st.submitted += 1;
            pending.insert(
                id,
                Pending {
                    req_dep: keep,
                    meta,
                    t0,
                    submit_s,
                    span,
                },
            );
        };
    for _ in 0..window {
        submit(st, spans, aux, &mut pending);
    }
    while !pending.is_empty() {
        let resp = st.server.recv().expect("requests are outstanding");
        let p = pending
            .remove(&resp.id)
            .expect("every response answers a submitted request");
        let latency_s = secs(p.t0);
        spans.close(p.span);
        out.attempted += 1;
        let infeasible = matches!(resp.result, Err(PartitionError::Infeasible));
        match (&resp.result, p.meta.expect_feasible) {
            (Ok(_), true) | (Err(PartitionError::Infeasible), false) => {}
            (r, expect) => out.fail(format!(
                "request {}: expected {}, got {:?}",
                resp.id,
                if expect { "a placement" } else { "Infeasible" },
                r.as_ref().map(|p| p.objective)
            )),
        }
        let encode_s = match &resp.result {
            Ok(part) if !resp.cache_hit => part.ilp_stats.phase_times.encode_s,
            _ => 0.0,
        };
        // The service time a solve spent outside prepare: what
        // `core.solve_overhead` compares with the ILP's own total.
        let probe = resp
            .result
            .as_ref()
            .ok()
            .map(|part| IlpProbe::from_stats(&part.ilp_stats, resp.latency_s - encode_s));
        if spans.enabled() {
            let end = spans.now();
            let service = spans.derived(
                "fleet.service",
                p.span,
                resp.id,
                end - resp.latency_s,
                resp.latency_s,
            );
            let mut at = spans.start_of(service);
            if let Ok(part) = &resp.result {
                if !resp.cache_hit {
                    spans.derived("core.prepare", service, resp.id, at, encode_s);
                    at += encode_s;
                }
                spans.ilp(&part.ilp_stats, service, resp.id, at);
            }
        }
        done.push(Done {
            latency_s,
            service_s: resp.latency_s,
            submit_s: p.submit_s,
            hit: resp.cache_hit,
            infeasible,
            probe,
        });
        if let Some(dep) = p.req_dep {
            if samples.len() < MAX_SAMPLES {
                samples.push(Sample {
                    app: FAMILIES[p.meta.family].0,
                    dep,
                    rate: p.meta.rate,
                    result: resp.result,
                });
            }
        }
        spent = between(secs(t) - spent);
        if secs(t) - spent < budget {
            submit(st, spans, aux, &mut pending);
        }
    }
    (done, secs(t) - spent)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    // Calibration (input generation, not set-up): the safe rate per
    // family, from one untimed set-up.
    let t = Instant::now();
    let (first, safe) = setup(workers, None);
    drop(first.server.shutdown());
    out.layer(Metric::single("bench.calibrate_s", "s", secs(t)));
    let mut st = setup(workers, Some(&safe)).0;
    out.layer(Metric::single(
        "profile.ms",
        "ms",
        st.apps.iter().map(|a| a.profile_s).sum::<f64>() * 1e3,
    ));

    let mut gen = Generator {
        rng: Rng::new(args.seed).fork(2),
        safe: safe.clone(),
        next_id: 0,
    };
    // The untraced phase's per-request rates ride inside the requests;
    // samples remember them here.
    let mut samples = Vec::new();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut spans = Spans::new(false);
    let mut aux = Aux::default();
    let mut setups = SetupSampler::new(
        budget,
        || setup(workers, Some(&safe)).0,
        |s: State| drop(s.server.shutdown()),
    );
    let (done, elapsed) = closed_loop(
        &mut st,
        &mut gen,
        budget,
        &mut spans,
        &mut [],
        &mut aux,
        &mut samples,
        &mut out,
        |elapsed| {
            setups.tick(elapsed);
            setups.spent_s
        },
    );
    out.e2e(Metric::single("peak_rss_mb", "MiB", peak_rss_mb()));
    out.e2e(setups.finish());
    let lat: Vec<f64> = done.iter().map(|d| d.latency_s).collect();
    let untraced_rate = done.len() as f64 / elapsed;
    out.e2e(Metric::single("answers_per_s", "1/s", untraced_rate));
    out.e2e(Metric::median("answer_ms_p50", "ms", &lat, 1e3));
    if lat.len() >= 100 {
        out.layer(Metric::quantile("answer_ms_p90", "ms", &lat, 0.9, 1e3));
    }
    if lat.len() >= 1000 {
        out.layer(Metric::quantile("answer_ms_p99", "ms", &lat, 0.99, 1e3));
    }

    let mut traced_done = Vec::new();
    if args.trace {
        let mut mirrors: Vec<PreparedDeployment<'static>> = Vec::new();
        for &(app, topo) in &FAMILIES {
            for &beta in &HOT_BETAS {
                let n = leaves(topo);
                let a = &st.apps[app];
                mirrors.push(
                    PreparedDeployment::new_shared(
                        Arc::clone(&a.graph),
                        Arc::clone(&a.profile),
                        &deployment(topo, beta, &vec![MIN_COUNT; n], &vec![MAX_BUDGET; n]),
                        &DeploymentConfig::default(),
                    )
                    .expect("hot shapes prepare"),
                );
            }
        }
        let mut spans = Spans::new(true);
        let (d, elapsed) = closed_loop(
            &mut st,
            &mut gen,
            args.seconds / 2.0,
            &mut spans,
            &mut mirrors,
            &mut aux,
            &mut samples,
            &mut out,
            |_| 0.0,
        );
        out.layer(Metric::single(
            "bench.trace_overhead_ratio",
            "ratio",
            ratio(d.len() as f64 / elapsed, untraced_rate),
        ));
        out.breakdown = Some(spans.breakdown("answer", crate::SELF_LAYERS));
        crate::write_spans(args, &spans);
        traced_done = d;

        // Stage-timed prepares of every hot shape, checked against the
        // prepared mirrors' sizes.
        let mut stages = Vec::new();
        for (h, mirror) in mirrors.iter().enumerate() {
            let (app, _) = FAMILIES[h / 2];
            let stage = prepare_stages(
                &st.apps[app],
                mirror.deployment(),
                &DeploymentConfig::default(),
            );
            if (stage.vars, stage.rows) != mirror.problem_size() {
                out.faults.push(format!(
                    "prepare stages of hot shape {h} built {}x{}, the prepared instance {:?}",
                    stage.vars,
                    stage.rows,
                    mirror.problem_size()
                ));
            }
            stages.push(stage);
        }
        stage_metrics(&mut out, &stages);
        let mut prep_s = Vec::new();
        let mut lp_s = Vec::new();
        let mut lp_iters = Vec::new();
        let mut pre_s = Vec::new();
        for (h, mirror) in mirrors.iter().enumerate() {
            let (app, _) = FAMILIES[h / 2];
            let a = &st.apps[app];
            let (_, dt) = timed(|| {
                PreparedDeployment::new(
                    &a.graph,
                    &a.profile,
                    mirror.deployment(),
                    &DeploymentConfig::default(),
                )
            });
            prep_s.push(dt);
            let (s, it) = crate::layers::root_lp(mirror.problem());
            lp_s.push(s);
            lp_iters.push(it as f64);
            pre_s.push(crate::layers::presolve_pass(mirror.problem()).0);
        }
        out.layer(Metric::median("core.prepare.ms_p50", "ms", &prep_s, 1e3));
        out.layer(Metric::median("ilp.root_lp.ms_p50", "ms", &lp_s, 1e3));
        out.layer(Metric::median(
            "ilp.root_lp.iterations",
            "count",
            &lp_iters,
            1.0,
        ));
        out.layer(Metric::median("ilp.presolve.ms_p50", "ms", &pre_s, 1e3));
    }

    let stats = std::mem::replace(&mut st.server, FleetServer::new(1)).shutdown();
    // The service's own books must balance.
    if stats.cache_hits + stats.cache_misses != stats.requests || stats.requests != st.submitted {
        out.faults.push(format!(
            "fleet books: {} hits + {} misses vs {} requests, {} submitted",
            stats.cache_hits, stats.cache_misses, stats.requests, st.submitted
        ));
    }
    if stats.cache_misses != stats.distinct_shapes || stats.distinct_shapes != st.shapes {
        out.faults.push(format!(
            "fleet books: {} encodes vs {} distinct shapes, {} submitted",
            stats.cache_misses, stats.distinct_shapes, st.shapes
        ));
    }

    // Post-run answer checks on the sampled requests.
    for s in &samples {
        let a = &st.apps[s.app];
        match &s.result {
            Ok(part) => {
                let rate = s.rate;
                if let Err(e) = check_loads(a, &s.dep, part, rate) {
                    out.fail(format!("sampled request: {e}"));
                }
                match dense_optimum(a, &s.dep, &DeploymentConfig::default(), rate) {
                    Ok(Some(opt)) => {
                        if let Err(e) = check_objective(part.objective, opt, 0.0) {
                            out.fail(format!("sampled request: {e}"));
                        }
                    }
                    Ok(None) => out.fail("sampled request: oracle says infeasible".into()),
                    Err(e) => out.fail(format!("sampled request: {e}")),
                }
            }
            Err(_) => match dense_optimum(a, &s.dep, &DeploymentConfig::default(), s.rate) {
                Ok(None) => {}
                other => out.fail(format!("sampled infeasible request: oracle {other:?}")),
            },
        }
    }

    if args.trace {
        let d = &traced_done;
        let us = 1e6;
        out.layer(Metric::median(
            "fleet.submit_us_p50",
            "us",
            &d.iter().map(|x| x.submit_s).collect::<Vec<_>>(),
            us,
        ));
        let wait: Vec<f64> = d.iter().map(|x| x.latency_s - x.service_s).collect();
        out.layer(Metric::median("fleet.queue_wait_us_p50", "us", &wait, us));
        out.layer(Metric::quantile(
            "fleet.queue_wait_us_p99",
            "us",
            &wait,
            0.99,
            us,
        ));
        let hit: Vec<f64> = d.iter().filter(|x| x.hit).map(|x| x.service_s).collect();
        let miss: Vec<f64> = d.iter().filter(|x| !x.hit).map(|x| x.service_s).collect();
        out.layer(Metric::median("fleet.service_hit_us_p50", "us", &hit, us));
        out.layer(Metric::quantile(
            "fleet.service_hit_us_p99",
            "us",
            &hit,
            0.99,
            us,
        ));
        out.layer(Metric::median("fleet.service_miss_us_p50", "us", &miss, us));
        out.layer(Metric::single(
            "fleet.hit_ratio",
            "ratio",
            ratio(hit.len() as f64, d.len() as f64),
        ));
        out.layer(Metric::single(
            "fleet.infeasible_ratio",
            "ratio",
            ratio(
                d.iter().filter(|x| x.infeasible).count() as f64,
                d.len() as f64,
            ),
        ));
        out.layer(Metric::single(
            "fleet.encodes",
            "count",
            stats.cache_misses as f64,
        ));
        out.layer(Metric::single(
            "fleet.distinct_shapes",
            "count",
            stats.distinct_shapes as f64,
        ));
        let solves: Vec<f64> = stats.per_worker_solves.iter().map(|&s| s as f64).collect();
        out.layer(Metric::single(
            "fleet.shard_imbalance",
            "ratio",
            ratio(
                solves.iter().copied().fold(0.0, f64::max),
                crate::util::mean(&solves),
            ),
        ));
        let per_req = |v: f64| ratio(v, stats.requests as f64) * 1e3;
        out.layer(Metric::single(
            "fleet.phase.encode_ms",
            "ms",
            per_req(stats.phase_times.encode_s),
        ));
        out.layer(Metric::single(
            "fleet.phase.nodes_ms",
            "ms",
            per_req(stats.phase_times.nodes_s),
        ));
        let answers = d.len();
        let probes: Vec<IlpProbe> = traced_done.into_iter().filter_map(|x| x.probe).collect();
        ilp_metrics(&mut out, &probes, answers);
        out.layer(Metric::median(
            "core.shape_key.us_p50",
            "us",
            &aux.shape_key_s,
            us,
        ));
        out.layer(Metric::median(
            "core.deltas_between.us_p50",
            "us",
            &aux.deltas_s,
            us,
        ));
        out.layer(Metric::median(
            "core.apply_delta.us_p50",
            "us",
            &aux.apply_s,
            us,
        ));
    }
    out
}
