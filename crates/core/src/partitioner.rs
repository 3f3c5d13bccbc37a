//! Partitioning failures shared by the whole pipeline.
//!
//! Every solve goes `Deployment` → `PreparedDeployment` → `solve_at`
//! (see [`crate::topology`]); the binary node/server cut of the paper's
//! §4.2 is the 2-site case of that tree. What can go wrong on the way —
//! a pinning conflict, proven infeasibility, an exhausted search budget,
//! a solver failure, or caller input the solver cannot price — is one
//! [`PartitionError`].

use wishbone_ilp::SolveError;

use crate::cost_graph::PinError;

/// Partitioning failures.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Pinning conflict (program cannot satisfy single-crossing placement).
    Pin(PinError),
    /// No partition satisfies the CPU/network budgets — the program does
    /// not "fit"; callers typically fall back to the §4.3 rate search.
    Infeasible,
    /// The branch-and-bound node/time budget ran out before *any*
    /// integer placement was found: the solve proved neither feasibility
    /// nor infeasibility. `best_bound` is the lower bound on the optimal
    /// objective the truncated search established, when it got far
    /// enough to have one. Distinct from [`PartitionError::Infeasible`]
    /// so rate searches report an unproven range instead of silently
    /// shrinking the feasible one.
    Unproven {
        /// Lower bound on the optimal objective from the open tree
        /// (offset-adjusted to the same frame as reported objectives).
        best_bound: Option<f64>,
    },
    /// Solver failure (iteration limits / numerical trouble).
    Solver(SolveError),
    /// Caller input the solver cannot price, such as a non-finite or
    /// non-positive rate multiplier. Nothing was solved and no prepared
    /// state was touched.
    Invalid(&'static str),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Pin(e) => write!(f, "pinning: {e}"),
            PartitionError::Infeasible => {
                write!(
                    f,
                    "no feasible partition within the CPU and network budgets"
                )
            }
            PartitionError::Unproven { best_bound } => {
                write!(
                    f,
                    "search budget exhausted before any integer placement was found"
                )?;
                if let Some(b) = best_bound {
                    write!(f, " (objective lower bound {b})")?;
                }
                Ok(())
            }
            PartitionError::Solver(e) => write!(f, "solver: {e}"),
            PartitionError::Invalid(why) => write!(f, "invalid input: {why}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<PinError> for PartitionError {
    fn from(e: PinError) -> Self {
        PartitionError::Pin(e)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::cost_graph::{build_partition_graph, Mode};
    use crate::encodings::{encode, Encoding, ObjectiveConfig};
    use crate::multitier::LinkSpec;
    use crate::preprocess::preprocess;
    use crate::topology::{
        partition_deployment, Deployment, DeploymentConfig, DeploymentPartition, Site,
    };
    use wishbone_dataflow::{ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value};
    use wishbone_ilp::IlpOptions;
    use wishbone_profile::{profile as run_profile, GraphProfile, Platform, SourceTrace};

    /// A 4-stage reducing pipeline with controllable per-stage cost:
    /// src -> a(cheap, 402B->102B) -> c(expensive, 102B->22B) -> sink.
    fn reducing_app() -> (Graph, OperatorId, Vec<OperatorId>) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let a = b.transform(
            "cheap_reduce",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter()
                    .loop_scope(w.len() as u64, |m| m.int(w.len() as u64));
                cx.emit(Value::VecI16(w.iter().step_by(4).copied().collect()));
            })),
            src,
        );
        let c = b.transform(
            "pricey_reduce",
            Box::new(FnWork(|_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter().loop_scope(1000, |m| {
                    m.fmul(4000);
                    m.fadd(4000);
                });
                cx.emit(Value::VecI16(w.iter().step_by(5).copied().collect()));
            })),
            a,
        );
        b.exit_namespace();
        let sink = b.sink("out", c);
        let _ = sink;
        let g = b.finish().unwrap();
        (g, src.0, vec![src.0, a.0, c.0])
    }

    fn profiled() -> (Graph, OperatorId, Vec<OperatorId>, GraphProfile) {
        let (mut g, src, ops) = reducing_app();
        let trace = SourceTrace {
            source: src,
            elements: (0..40)
                .map(|i| Value::VecI16(vec![i as i16; 200]))
                .collect(),
            rate_hz: 10.0,
        };
        let p = run_profile(&mut g, &[trace]).unwrap();
        (g, src, ops, p)
    }

    /// The node/server split on `platform` under explicit budgets.
    fn binary(platform: &Platform, cpu_budget: f64, net_budget: f64) -> Deployment {
        Deployment::binary(
            Site::new(platform.name.clone(), platform).with_cpu_budget(cpu_budget),
            LinkSpec {
                beta: 1.0,
                net_budget,
            },
        )
    }

    fn node_ops(part: &DeploymentPartition) -> &HashSet<OperatorId> {
        &part.leaves[0].site_ops[0]
    }

    #[test]
    fn fast_platform_takes_everything() {
        let (g, _src, ops, prof) = profiled();
        let dep = Deployment::chain(&[Platform::gumstix(), Platform::server()]);
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();
        // All three node-side ops fit easily: minimum-bandwidth cut.
        assert_eq!(node_ops(&part), &ops.iter().copied().collect());
        assert_eq!(part.leaves[0].link_cut_edges[0].len(), 1);
        assert!(part.leaves[0].predicted_cpu[0] < 0.1);
        assert!(part.ilp_stats.proved);
    }

    #[test]
    fn tight_cpu_budget_moves_expensive_stage_off() {
        let (g, _src, ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        // Find the expensive stage's cost and budget just below it.
        let pricey = prof.cpu_fraction(ops[2], &platform);
        let budget = prof.cpu_fraction(ops[0], &platform)
            + prof.cpu_fraction(ops[1], &platform)
            + pricey * 0.5;
        let dep = binary(&platform, budget, 1e9);
        let part = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();
        assert!(node_ops(&part).contains(&ops[1]), "cheap stage stays");
        assert!(
            !node_ops(&part).contains(&ops[2]),
            "pricey stage moves to server"
        );
        assert!(part.leaves[0].predicted_cpu[0] <= budget + 1e-9);
    }

    #[test]
    fn infeasible_when_budgets_are_zero() {
        let (g, _src, _ops, prof) = profiled();
        // Even the pinned source exceeds this CPU budget, and the raw
        // stream exceeds this network budget.
        let dep = binary(&Platform::tmote_sky(), 1e-12, 1.0);
        assert_eq!(
            partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap_err(),
            PartitionError::Infeasible
        );
    }

    #[test]
    fn preprocessing_shrinks_the_problem_without_changing_the_answer() {
        let (g, _src, _ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        let dep = binary(&platform, platform.cpu_budget_fraction, 1e9);
        let with = DeploymentConfig::default();
        let without = DeploymentConfig {
            preprocess: false,
            ..DeploymentConfig::default()
        };
        let a = partition_deployment(&g, &prof, &dep, &with).unwrap();
        let b = partition_deployment(&g, &prof, &dep, &without).unwrap();
        assert_eq!(node_ops(&a), node_ops(&b));
        assert!(a.merge_stats.1 <= b.merge_stats.1);
        assert!(a.problem_size.0 <= b.problem_size.0);
    }

    /// The deployment path (restricted, monotone cuts) against the
    /// §4.2.1 general edge-variable encoding solved directly: with data
    /// crossing the network once, both formulations find the same cut.
    #[test]
    fn encodings_agree() {
        let (g, _src, _ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        let budget = platform.cpu_budget_fraction;
        let dep = binary(&platform, budget, 1e9);
        let a = partition_deployment(&g, &prof, &dep, &DeploymentConfig::default()).unwrap();

        let pg0 = build_partition_graph(&g, &prof, &platform, Mode::Permissive, 1.0).unwrap();
        let pg = preprocess(&pg0).unwrap().graph;
        let ep = encode(
            &pg,
            Encoding::General,
            &ObjectiveConfig::bandwidth_only(budget, 1e9),
        );
        let sol = ep.problem.solve_ilp(&IlpOptions::default()).unwrap();
        assert_eq!(node_ops(&a), &pg.expand(&ep.decode(&sol.values)));
        assert!(
            (a.leaves[0].predicted_net[0] - sol.objective).abs() < 1e-9 * (1.0 + sol.objective)
        );
    }

    #[test]
    fn rate_scaling_monotone_in_load() {
        let (g, _src, _ops, prof) = profiled();
        let platform = Platform::tmote_sky();
        let dep = binary(&platform, platform.cpu_budget_fraction, 1e9);
        let cfg = DeploymentConfig::default();
        let slow = partition_deployment(&g, &prof, &dep, &cfg.clone().at_rate(0.5)).unwrap();
        let fast = partition_deployment(&g, &prof, &dep, &cfg.at_rate(2.0)).unwrap();
        // Fewer (or equal) operators fit within the CPU budget at higher
        // rates (Fig 5a's downward-sloping curves). Note the node CPU
        // *prediction* may fall at higher rates precisely because work
        // moves off the node.
        assert!(node_ops(&fast).len() <= node_ops(&slow).len());
        assert!(fast.leaves[0].predicted_cpu[0] <= platform.cpu_budget_fraction + 1e-9);
    }
}
