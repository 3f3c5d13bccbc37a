//! Independent answer checks. None of them runs inside a timed phase.
//!
//! * [`check_loads`] recomputes a placement's per-site CPU and per-link
//!   bytes from the `GraphProfile` with the benchmark's own arithmetic and
//!   checks them against the budgets and against what the solver
//!   reported.
//! * [`dense_optimum`] re-solves a request to proven optimality on the
//!   dense-tableau backend, the repository's differential oracle, and on
//!   the sparse backend, and requires the two to agree.

use std::collections::HashMap;

use wishbone::core::partition_deployment;
use wishbone::ilp::SolverBackend;
use wishbone::prelude::*;

use crate::fixtures::App;

/// Relative agreement required between two solvers' objectives.
pub const OBJ_REL_TOL: f64 = 1e-6;
/// Slack allowed on a budget row (the solver's own row tolerance).
const BUDGET_TOL: f64 = 1e-6;

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Recompute every site's per-device CPU and every uplink's aggregate
/// on-air bytes/second of `part` at `rate`, and check them against
/// `dep`'s budgets and against the loads the solver reported. Also
/// checks that every operator sits at exactly one path position and that
/// no dataflow edge runs back toward the leaf.
pub fn check_loads(
    app: &App,
    dep: &Deployment,
    part: &DeploymentPartition,
    rate: f64,
) -> Result<(), String> {
    let graph = &app.graph;
    let prof = &app.profile;
    let n = dep.len();
    let mut site_cpu = vec![0.0f64; n];
    let mut link_net = vec![0.0f64; n];
    if part.leaves.len() != dep.leaves().len() {
        return Err(format!(
            "{} leaf placements for {} leaves",
            part.leaves.len(),
            dep.leaves().len()
        ));
    }
    for leaf in &part.leaves {
        if leaf.path != dep.path(leaf.leaf) {
            return Err(format!("leaf {:?}: path differs from the tree", leaf.leaf));
        }
        let mut pos: HashMap<OperatorId, usize> = HashMap::new();
        for (t, ops) in leaf.site_ops.iter().enumerate() {
            for &op in ops {
                if pos.insert(op, t).is_some() {
                    return Err(format!("operator {op:?} placed twice"));
                }
            }
        }
        if pos.len() != graph.operator_count() {
            return Err(format!(
                "{} of {} operators placed",
                pos.len(),
                graph.operator_count()
            ));
        }
        let leaf_site = dep.site(leaf.leaf);
        let eff = rate * leaf_site.rate_factor;
        let count = leaf_site.count as f64;
        for op in graph.operator_ids() {
            let t = pos[&op];
            let s = leaf.path[t];
            site_cpu[s.0] += prof.cpu_fraction(op, &dep.site(s).platform) * eff * count
                / dep.site(s).count as f64;
        }
        for eid in graph.edge_ids() {
            let e = graph.edge(eid);
            let (a, b) = (pos[&e.src], pos[&e.dst]);
            if a > b {
                return Err(format!("edge {eid:?} runs back toward the leaf"));
            }
            for &s in &leaf.path[a..b] {
                link_net[s.0] +=
                    prof.edge_on_air_bandwidth(eid, &dep.site(s).platform) * eff * count;
            }
        }
    }
    for s in dep.site_ids() {
        let site = dep.site(s);
        let cpu = site_cpu[s.0];
        if site.cpu_budget.is_finite()
            && cpu > site.cpu_budget + BUDGET_TOL * (1.0 + site.cpu_budget)
        {
            return Err(format!(
                "site {}: CPU {cpu} over budget {}",
                site.name, site.cpu_budget
            ));
        }
        if !close(cpu, part.site_cpu[s.0], OBJ_REL_TOL) {
            return Err(format!(
                "site {}: recomputed CPU {cpu} vs reported {}",
                site.name, part.site_cpu[s.0]
            ));
        }
        if let Some(link) = dep.uplink(s) {
            let net = link_net[s.0];
            if link.net_budget.is_finite()
                && net > link.net_budget + BUDGET_TOL * (1.0 + link.net_budget)
            {
                return Err(format!(
                    "uplink of {}: {net} B/s over budget {}",
                    site.name, link.net_budget
                ));
            }
            if !close(net, part.link_net[s.0], OBJ_REL_TOL) {
                return Err(format!(
                    "uplink of {}: recomputed {net} B/s vs reported {}",
                    site.name, part.link_net[s.0]
                ));
            }
        }
    }
    Ok(())
}

/// The proven optimum of `dep` at `rate` under `cfg` (engine and gap
/// overridden to exact and zero): `Some(objective)`, or `None` when the
/// instance is infeasible. Solved on the dense-tableau oracle and on the
/// sparse backend; an error when the two disagree on feasibility or
/// objective, or when either cannot prove its answer.
pub fn dense_optimum(
    app: &App,
    dep: &Deployment,
    cfg: &DeploymentConfig,
    rate: f64,
) -> Result<Option<f64>, String> {
    let solve = |backend: SolverBackend| -> Result<Option<f64>, String> {
        let mut c = cfg.clone().at_rate(rate);
        c.engine = PlacementEngine::Exact;
        c.ilp.rel_gap = 0.0;
        c.ilp.time_limit = None;
        c.ilp.backend = backend;
        match partition_deployment(&app.graph, &app.profile, dep, &c) {
            Ok(p) => Ok(Some(p.objective)),
            Err(PartitionError::Infeasible) => Ok(None),
            Err(e) => Err(format!("{backend:?} oracle: {e}")),
        }
    };
    let dense = solve(SolverBackend::Dense)?;
    let sparse = solve(SolverBackend::Sparse)?;
    match (dense, sparse) {
        (None, None) => Ok(None),
        (Some(d), Some(s)) if close(d, s, OBJ_REL_TOL) => Ok(Some(d)),
        (d, s) => Err(format!("dense oracle {d:?} vs sparse {s:?}")),
    }
}

/// Check an answer's objective against the proven optimum: never better
/// than it, and worse by at most the relative gap the solve was allowed
/// (the branch-and-bound stopping rule, `(inc − bound) / max(|inc|, 1)`).
pub fn check_objective(answer: f64, optimum: f64, allowed_gap: f64) -> Result<(), String> {
    let scale = answer.abs().max(1.0);
    if answer < optimum - OBJ_REL_TOL * scale {
        return Err(format!(
            "objective {answer} beats the proven optimum {optimum}"
        ));
    }
    if answer > optimum + (allowed_gap + OBJ_REL_TOL) * scale {
        return Err(format!(
            "objective {answer} is more than {allowed_gap} above the optimum {optimum}"
        ));
    }
    Ok(())
}
