//! Per-layer probes for the traced run: the prepare stages called one by
//! one through their public entry points, and the root LP and presolve of
//! a prepared problem. These run outside every answer, so they add to the
//! traced run's length but never to an answer's latency.

use std::time::Instant;

use wishbone::core::{
    build_tiered_graph, encode_deployment, pin_analysis, preprocess_tiered, DeploymentObjective,
    LeafChain, TierObjective,
};
use wishbone::ilp::{presolve, solve_lp, PresolveOutcome};
use wishbone::prelude::*;

use crate::fixtures::App;
use crate::util::secs;

/// Stage times of one prepare, seconds, and the sizes it produced.
#[derive(Debug, Clone, Default)]
pub struct PrepareStages {
    pub pin_s: f64,
    /// `build_tiered_graph` minus the pin analysis it runs inside.
    pub tiered_build_s: f64,
    pub merge_s: f64,
    pub encode_s: f64,
    pub vertices_before: usize,
    pub vertices_after: usize,
    pub vars: usize,
    pub rows: usize,
}

/// The chain view of one leaf's root path (what the per-leaf merge
/// reasons about).
fn leaf_objective(dep: &Deployment, leaf: SiteId) -> TierObjective {
    let path = dep.path(leaf);
    let up = |s: &SiteId| *dep.uplink(*s).expect("non-root sites have uplinks");
    TierObjective {
        alpha: path.iter().map(|&s| dep.site(s).alpha).collect(),
        cpu_budget: path.iter().map(|&s| dep.site(s).cpu_budget).collect(),
        beta: path[..path.len() - 1].iter().map(|s| up(s).beta).collect(),
        net_budget: path[..path.len() - 1]
            .iter()
            .map(|s| up(s).net_budget)
            .collect(),
    }
}

/// Per-site weights and budgets at nominal pricing.
fn deployment_objective(dep: &Deployment) -> DeploymentObjective {
    let sites: Vec<SiteId> = dep.site_ids().collect();
    DeploymentObjective {
        alpha: sites.iter().map(|&s| dep.site(s).alpha).collect(),
        cpu_budget: sites.iter().map(|&s| dep.site(s).cpu_budget).collect(),
        count: sites.iter().map(|&s| dep.site(s).count as f64).collect(),
        beta: sites
            .iter()
            .map(|&s| dep.uplink(s).map_or(0.0, |l| l.beta))
            .collect(),
        net_budget: sites
            .iter()
            .map(|&s| dep.uplink(s).map_or(f64::INFINITY, |l| l.net_budget))
            .collect(),
        row_order: dep.site_order().iter().map(|s| s.0).collect(),
    }
}

/// Run the prepare pipeline stage by stage through the stages' public
/// entry points, timing each. The caller compares the resulting sizes
/// with `PreparedDeployment::problem_size` to confirm the stages
/// reproduce what the prepared instance built.
pub fn prepare_stages(app: &App, dep: &Deployment, cfg: &DeploymentConfig) -> PrepareStages {
    let mut st = PrepareStages::default();
    let mut graphs = Vec::new();
    for leaf in dep.leaves() {
        let path = dep.path(leaf);
        let platforms: Vec<Platform> = path.iter().map(|&s| dep.site(s).platform.clone()).collect();
        let t = Instant::now();
        let pins = pin_analysis(&app.graph, cfg.mode);
        let pin_s = secs(t);
        st.pin_s += pin_s;
        pins.expect("benchmark apps pin cleanly");
        let t = Instant::now();
        let tg = build_tiered_graph(
            &app.graph,
            &app.profile,
            &platforms,
            cfg.mode,
            dep.site(leaf).rate_factor,
        )
        .expect("benchmark apps pin cleanly");
        st.tiered_build_s += (secs(t) - pin_s).max(0.0);
        st.vertices_before += tg.vertices.len();
        let tg = if cfg.preprocess {
            let t = Instant::now();
            let merged = preprocess_tiered(&tg, &leaf_objective(dep, leaf))
                .expect("benchmark apps merge cleanly");
            st.merge_s += secs(t);
            merged.graph
        } else {
            tg
        };
        st.vertices_after += tg.vertices.len();
        graphs.push((tg, path, dep.site(leaf).count as f64));
    }
    let t = Instant::now();
    let chains: Vec<LeafChain<'_>> = graphs
        .iter()
        .map(|(g, path, count)| LeafChain {
            graph: g,
            path: path.iter().map(|s| s.0).collect(),
            count: *count,
        })
        .collect();
    let ep = encode_deployment(&chains, &deployment_objective(dep));
    st.encode_s = secs(t);
    st.vars = ep.problem.num_vars();
    st.rows = ep.problem.num_constraints();
    st
}

/// One cold root-LP solve of `problem`: (seconds, simplex iterations),
/// iterations 0 when the LP is infeasible.
pub fn root_lp(problem: &Problem) -> (f64, u64) {
    let t = Instant::now();
    let lp = solve_lp(problem);
    (secs(t), lp.map_or(0, |s| s.iterations))
}

/// One bound-propagation presolve pass over `problem`: seconds, and
/// whether it proved the problem infeasible.
pub fn presolve_pass(problem: &Problem) -> (f64, bool) {
    let mut lower = problem.lower_bounds().to_vec();
    let mut upper = problem.upper_bounds().to_vec();
    let t = Instant::now();
    let out = presolve(problem, &mut lower, &mut upper);
    (secs(t), out == PresolveOutcome::Infeasible)
}

/// The forest_eeg example's instance: two wards of 20 eleven-channel EEG
/// caps, gateway A's backhaul starved to 100 B/s, B's roomy. Returns the
/// cold root-LP time of its prepared problem, seconds.
pub fn forest_eeg_root_lp(app11: &App) -> f64 {
    let mote = Platform::tmote_sky();
    let relay = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let cap_uplink = LinkSpec {
        beta: 1.0,
        net_budget: 1_200.0,
    };
    for backhaul in [100.0, 400_000.0] {
        let gw = dep.attach(
            root,
            Site::new("gw", &relay),
            LinkSpec {
                beta: 1.0,
                net_budget: backhaul,
            },
        );
        dep.attach(gw, Site::new("ward", &mote).with_count(20), cap_uplink);
    }
    let mut cfg = DeploymentConfig::default();
    cfg.ilp.rel_gap = 0.025;
    let prep = PreparedDeployment::new(&app11.graph, &app11.profile, &dep, &cfg)
        .expect("forest_eeg prepares");
    root_lp(prep.problem()).0
}

/// The `core.prepare.*` stage metrics (medians) and the prepared sizes
/// (means) over a set of stage-timed prepares.
pub fn stage_metrics(out: &mut crate::record::Outcome, stages: &[PrepareStages]) {
    use crate::record::Metric;
    let f = |g: &dyn Fn(&PrepareStages) -> f64| stages.iter().map(g).collect::<Vec<f64>>();
    out.layer(Metric::median(
        "core.prepare.pin_ms",
        "ms",
        &f(&|s| s.pin_s),
        1e3,
    ));
    out.layer(Metric::median(
        "core.prepare.tiered_build_ms",
        "ms",
        &f(&|s| s.tiered_build_s),
        1e3,
    ));
    out.layer(Metric::median(
        "core.prepare.merge_ms",
        "ms",
        &f(&|s| s.merge_s),
        1e3,
    ));
    out.layer(Metric::median(
        "core.prepare.encode_ms",
        "ms",
        &f(&|s| s.encode_s),
        1e3,
    ));
    out.layer(Metric::mean(
        "core.prepare.vertices_before",
        "count",
        &f(&|s| s.vertices_before as f64),
    ));
    out.layer(Metric::mean(
        "core.prepare.vertices_after",
        "count",
        &f(&|s| s.vertices_after as f64),
    ));
    out.layer(Metric::mean(
        "ilp.problem.vars",
        "count",
        &f(&|s| s.vars as f64),
    ));
    out.layer(Metric::mean(
        "ilp.problem.rows",
        "count",
        &f(&|s| s.rows as f64),
    ));
}
