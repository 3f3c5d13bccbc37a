//! §4.3: data rate as a free variable.
//!
//! When no partition fits, Wishbone finds "the maximum data rates for input
//! sources that will support a viable partitioning". Because CPU and
//! network load increase monotonically with input rate, "Wishbone simply
//! does a binary search over data rates to find the maximum rate at which
//! the partitioning algorithm returns a valid partition" — valid as long as
//! the network is not driven past the point where sending more means
//! receiving less, which the §7.3.1 network profile guarantees by keeping
//! the budget below saturation.
//!
//! [`max_sustainable_rate_deployment`] runs that search over any
//! [`Deployment`]: the paper's node/server split is its 2-site case.

use wishbone_dataflow::Graph;
use wishbone_ilp::SolverBackend;
use wishbone_profile::GraphProfile;

use crate::partitioner::PartitionError;
use crate::topology::{Deployment, DeploymentConfig, DeploymentPartition, PreparedDeployment};

/// Result of the topology-aware §4.3 rate search.
#[derive(Debug, Clone)]
pub struct DeploymentRateResult {
    /// Highest feasible global rate multiplier found.
    pub rate: f64,
    /// The optimal placement at that rate.
    pub partition: DeploymentPartition,
    /// ILP solves consumed.
    pub evaluations: u32,
    /// Encodings performed — always 1 (probes rescale in place).
    pub encodes: u32,
    /// The simplex backend every probe ran on (resolved, never `Auto`):
    /// sparse revised on kilooperator encodings, dense tableau on small
    /// ones.
    pub backend: SolverBackend,
    /// The lowest probed rate whose solve timed out *without proving
    /// anything* (no incumbent, no infeasibility certificate). When
    /// `Some`, [`DeploymentRateResult::rate`] is only a proven *lower*
    /// bound on the sustainable rate — the true maximum may lie anywhere
    /// up to the unproven rate. `None` means every probe was decisive and
    /// the result is exact to the requested tolerance.
    pub unproven: Option<UnprovenRate>,
}

/// A probed rate whose branch-and-bound hit its node/time budget before
/// finding any integer point: neither feasible nor infeasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnprovenRate {
    /// The rate multiplier that was probed.
    pub rate: f64,
    /// Lower bound on the probe's optimal objective from the truncated
    /// search tree, if it got far enough to establish one.
    pub best_bound: Option<f64>,
}

/// Probe bookkeeping for one search: the prepared instance, the probe
/// count, and the lowest unproven probe.
struct Search<'a> {
    prep: PreparedDeployment<'a>,
    evaluations: u32,
    unproven: Option<UnprovenRate>,
}

impl Search<'_> {
    /// Solve at `rate`: `Some` placement when feasible, `None` when
    /// proven infeasible or unproven (the latter recorded).
    fn probe(&mut self, rate: f64) -> Result<Option<DeploymentPartition>, PartitionError> {
        self.evaluations += 1;
        match self.prep.solve_at(rate) {
            Ok(p) => Ok(Some(p)),
            Err(PartitionError::Infeasible) => Ok(None),
            Err(PartitionError::Unproven { best_bound }) => {
                if self.unproven.is_none_or(|prev| rate < prev.rate) {
                    self.unproven = Some(UnprovenRate { rate, best_bound });
                }
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn result(self, rate: f64, partition: DeploymentPartition) -> DeploymentRateResult {
        DeploymentRateResult {
            rate,
            partition,
            evaluations: self.evaluations,
            encodes: self.prep.encodes(),
            backend: self.prep.solver_backend(),
            unproven: self.unproven,
        }
    }
}

/// Binary-search the maximum sustainable global rate multiplier of a
/// deployment in `(0, hi_limit]` to relative precision `tol`.
///
/// The deployment is built, merged, and encoded **once** (a
/// [`PreparedDeployment`]); each probe rescales the prepared ILP in
/// place, reuses the same simplex workspace, and seeds branch-and-bound
/// with the previous probe's incumbent. Infeasible probes at overload
/// rates are typically refused by presolve without a single simplex
/// iteration.
///
/// The schedule: establish a feasible lower bound at a vanishing rate,
/// double until infeasible (or the cap is hit), then bisect. An
/// [`PartitionError::Unproven`] probe is treated as an upper bound for
/// the bisection (conservative) but reported in
/// [`DeploymentRateResult::unproven`], so callers can tell a proven
/// ceiling from a search that merely ran out of budget.
///
/// Returns `None` if the deployment is infeasible even at vanishingly
/// small rates (e.g. pinned operators alone exceed a CPU budget),
/// mirroring the paper's "the programmer will have to ... switch to a
/// more powerful node platform" case. A non-finite or non-positive
/// `hi_limit` or `tol` is [`PartitionError::Invalid`]; solver errors
/// propagate.
pub fn max_sustainable_rate_deployment(
    graph: &Graph,
    profile: &GraphProfile,
    dep: &Deployment,
    cfg: &DeploymentConfig,
    hi_limit: f64,
    tol: f64,
) -> Result<Option<DeploymentRateResult>, PartitionError> {
    if !(hi_limit.is_finite() && hi_limit > 0.0) {
        return Err(PartitionError::Invalid(
            "rate-search cap must be finite and positive",
        ));
    }
    if !(tol.is_finite() && tol > 0.0) {
        return Err(PartitionError::Invalid(
            "rate-search tolerance must be finite and positive",
        ));
    }
    let mut search = Search {
        prep: PreparedDeployment::new(graph, profile, dep, cfg)?,
        evaluations: 0,
        unproven: None,
    };

    // Establish a feasible lower bound.
    let mut lo = hi_limit * 2f64.powi(-24);
    let Some(mut best) = search.probe(lo)? else {
        return match search.unproven {
            // The floor probe itself was unproven: nothing was learned.
            Some(u) => Err(PartitionError::Unproven {
                best_bound: u.best_bound,
            }),
            None => Ok(None),
        };
    };

    // Grow until infeasible/unproven or the cap is hit.
    let mut hi = lo;
    loop {
        let next = (hi * 2.0).min(hi_limit);
        hi = next;
        let Some(p) = search.probe(next)? else {
            break;
        };
        lo = next;
        best = p;
        if (next - hi_limit).abs() < f64::EPSILON * hi_limit {
            return Ok(Some(search.result(lo, best)));
        }
    }

    // Bisect (lo feasible; hi infeasible or unproven).
    while (hi - lo) / lo > tol {
        let mid = 0.5 * (lo + hi);
        match search.probe(mid)? {
            Some(p) => {
                lo = mid;
                best = p;
            }
            None => hi = mid,
        }
    }
    Ok(Some(search.result(lo, best)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multitier::LinkSpec;
    use crate::topology::{partition_deployment, PreparedDeployment, Site};
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, OperatorId, Value};
    use wishbone_profile::{profile as run_profile, Platform, SourceTrace};

    /// src -> crunch(compute-heavy 10x reducer) -> sink.
    fn app() -> (Graph, OperatorId) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let crunch = b.transform(
            "crunch",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter().loop_scope(w.len() as u64, |m| {
                    m.fmul(10 * w.len() as u64);
                    m.fadd(10 * w.len() as u64);
                });
                cx.emit(Value::VecI16(w.iter().step_by(10).copied().collect()));
            })),
            src,
        );
        b.exit_namespace();
        b.sink("out", crunch);
        (b.finish().unwrap(), src.0)
    }

    fn profiled() -> (Graph, GraphProfile) {
        let (mut g, src) = app();
        let t = SourceTrace {
            source: src,
            elements: (0..20)
                .map(|i| Value::VecI16(vec![i as i16; 200]))
                .collect(),
            rate_hz: 40.0,
        };
        let p = run_profile(&mut g, &[t]).unwrap();
        (g, p)
    }

    /// The paper's node/server split on `platform` at its default
    /// budgets.
    fn binary(platform: &Platform) -> Deployment {
        Deployment::chain(&[platform.clone(), Platform::server()])
    }

    #[test]
    fn finds_a_boundary_rate() {
        let (g, prof) = profiled();
        let dep = binary(&Platform::tmote_sky());
        let cfg = DeploymentConfig::default();
        let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 64.0, 0.01)
            .unwrap()
            .expect("feasible at low rates");
        assert!(r.rate > 0.0 && r.rate < 64.0, "rate {}", r.rate);
        // Just above the found rate must be infeasible.
        let above = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(r.rate * 1.05));
        assert_eq!(above.unwrap_err(), PartitionError::Infeasible);
        // At the found rate, feasible.
        let at = partition_deployment(&g, &prof, &dep, &cfg.at_rate(r.rate));
        assert!(at.is_ok());
    }

    #[test]
    fn powerful_platform_hits_the_cap() {
        let (g, prof) = profiled();
        let dep = binary(&Platform::gumstix());
        let r = max_sustainable_rate_deployment(
            &g,
            &prof,
            &dep,
            &DeploymentConfig::default(),
            8.0,
            0.01,
        )
        .unwrap()
        .expect("feasible");
        assert!(
            (r.rate - 8.0).abs() < 1e-9,
            "cap should be reached, got {}",
            r.rate
        );
    }

    #[test]
    fn whole_search_encodes_exactly_once() {
        let (g, prof) = profiled();
        let dep = binary(&Platform::tmote_sky());
        let r = max_sustainable_rate_deployment(
            &g,
            &prof,
            &dep,
            &DeploymentConfig::default(),
            64.0,
            0.01,
        )
        .unwrap()
        .expect("feasible at low rates");
        assert_eq!(
            r.encodes, 1,
            "one graph build + preprocess + encode for the whole search"
        );
        assert!(
            r.evaluations > r.encodes,
            "many probes ({}) must reuse the single prepared encoding",
            r.evaluations
        );
    }

    #[test]
    fn prepared_partition_matches_one_shot() {
        let (g, prof) = profiled();
        let dep = binary(&Platform::tmote_sky());
        let cfg = DeploymentConfig::default();
        let mut prep = PreparedDeployment::new(&g, &prof, &dep, &cfg).unwrap();
        for rate in [0.02, 0.05, 0.25, 1.0] {
            let a = prep.solve_at(rate);
            let b = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(rate));
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.leaves[0].site_ops, b.leaves[0].site_ops, "rate {rate}");
                    assert!(
                        (a.objective - b.objective).abs() < 1e-6 * (1.0 + b.objective.abs()),
                        "rate {rate}: {} vs {}",
                        a.objective,
                        b.objective
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "rate {rate}"),
                (a, b) => panic!("rate {rate}: prepared {a:?} vs one-shot {b:?}"),
            }
        }
        assert_eq!(prep.encodes(), 1);
        assert_eq!(prep.solves(), 4);
    }

    #[test]
    fn backends_agree_on_the_rate_search() {
        // The §4.3 search must land on the same rate whichever simplex
        // backend runs the probes, and report the backend it used.
        let (g, prof) = profiled();
        let dep = binary(&Platform::tmote_sky());
        let mut rates = Vec::new();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut cfg = DeploymentConfig::default();
            cfg.ilp.backend = backend;
            let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 64.0, 0.01)
                .unwrap()
                .expect("feasible at low rates");
            assert_eq!(r.backend, backend, "forced backend must be reported");
            rates.push(r.rate);
        }
        assert!(
            (rates[0] - rates[1]).abs() <= 0.02 * rates[0],
            "dense rate {} vs sparse rate {}",
            rates[0],
            rates[1]
        );
    }

    #[test]
    fn hopeless_program_returns_none() {
        let (g, prof) = profiled();
        let mote = Platform::tmote_sky();
        let dep = Deployment::binary(
            Site::new("motes", &mote).with_cpu_budget(0.0),
            LinkSpec {
                beta: 1.0,
                net_budget: 0.0,
            },
        );
        let cfg = DeploymentConfig::default();
        assert!(
            max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 8.0, 0.01)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn result_rate_is_nearly_maximal() {
        let (g, prof) = profiled();
        let dep = binary(&Platform::nokia_n80());
        let cfg = DeploymentConfig::default();
        let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, 1024.0, 0.005)
            .unwrap()
            .expect("feasible");
        if r.rate < 1023.0 {
            // Tolerance respected: 1.5% above must fail.
            let above = partition_deployment(&g, &prof, &dep, &cfg.at_rate(r.rate * 1.015));
            assert_eq!(above.unwrap_err(), PartitionError::Infeasible);
        }
    }

    #[test]
    fn bad_search_bounds_are_typed_errors() {
        let (g, prof) = profiled();
        let dep = binary(&Platform::tmote_sky());
        let cfg = DeploymentConfig::default();
        for (hi_limit, tol) in [
            (0.0, 0.01),
            (-8.0, 0.01),
            (f64::NAN, 0.01),
            (f64::INFINITY, 0.01),
            (8.0, 0.0),
            (8.0, f64::NAN),
            (8.0, -1.0),
        ] {
            let r = max_sustainable_rate_deployment(&g, &prof, &dep, &cfg, hi_limit, tol);
            assert!(
                matches!(r, Err(PartitionError::Invalid(_))),
                "hi_limit {hi_limit}, tol {tol}: {r:?}"
            );
        }
    }
}
