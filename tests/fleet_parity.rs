//! Fleet-service determinism suite (PR 10 acceptance): a shuffled
//! 200-request batch answered through the sharded, shape-cached
//! [`FleetServer`] must be **bit-identical** — objectives, placements,
//! and predicted load vectors — to answering each request with a serial
//! one-shot [`partition_deployment`], at every worker count. Cache hits
//! must not leak state: a request served by a warm `PreparedDeployment`
//! that has already answered different counts, budgets, and rates has to
//! produce the same bits as a cold encode.
//!
//! Everything here is deterministic by construction (a fixed LCG drives
//! the shuffle and the parameter draws), so a failure is a real
//! state-leak bug, not flake.

use std::sync::Arc;

use wishbone::core::{
    partition_deployment, Deployment, DeploymentConfig, DeploymentPartition, LinkSpec,
    PartitionError, Site,
};
use wishbone::dataflow::{ExecCtx, FnWork, Graph, Value};
use wishbone::prelude::{
    profile, run_batch, FleetConfig, FleetRequest, GraphBuilder, GraphProfile, Platform,
    SourceTrace,
};

/// Tiny deterministic PRNG — no vendored `rand` in tier-1 tests.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A small reducing pipeline; `variant` perturbs costs and decimation so
/// the two graphs encode differently (distinct shapes, not just distinct
/// pointers).
fn mk_app(variant: usize) -> (Graph, wishbone::dataflow::OperatorId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for s in 0..2 + variant {
        let cost = (600 + 400 * variant as u64) * (s as u64 + 1);
        let keep = 2 + s;
        prev = b.transform(
            format!("stage{s}"),
            Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let w = v.as_i16s().unwrap();
                cx.meter().loop_scope(cost, |m| {
                    m.int(cost);
                    m.fadd(cost / 2);
                });
                cx.emit(Value::VecI16(w.iter().step_by(keep).copied().collect()));
            })),
            prev,
        );
    }
    b.exit_namespace();
    b.sink("out", prev);
    (b.finish().unwrap(), src.0)
}

fn profiled(variant: usize) -> (Arc<Graph>, Arc<GraphProfile>) {
    let (mut g, src) = mk_app(variant);
    let trace = SourceTrace {
        source: src,
        elements: (0..12).map(|i| Value::VecI16(vec![i as i16; 96])).collect(),
        rate_hz: 25.0,
    };
    let prof = profile(&mut g, &[trace]).expect("fixture graphs profile cleanly");
    (Arc::new(g), Arc::new(prof))
}

/// `deep == false`: root → gateway → motes (star). `deep == true`: an
/// extra relay tier between root and gateway. `beta` prices the
/// gateway-to-root uplink and is part of the shape; `count` and the
/// gateway CPU budget are the delta-reachable per-request knobs.
fn mk_dep(deep: bool, beta: f64, count: usize, gw_budget: f64) -> Deployment {
    let phone = Platform::nokia_n80();
    let mote = Platform::tmote_sky();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let mut parent = dep.root();
    if deep {
        parent = dep.attach(
            parent,
            Site::new("relay", &phone),
            LinkSpec {
                beta,
                net_budget: f64::INFINITY,
            },
        );
    }
    let gw = dep.attach(
        parent,
        Site::new("gw", &phone).with_cpu_budget(gw_budget),
        LinkSpec {
            beta,
            net_budget: 4000.0,
        },
    );
    dep.attach(
        gw,
        // A literal, not `with_count`: requests may carry a zero count.
        Site {
            count,
            ..Site::new("motes", &mote)
        },
        LinkSpec {
            beta: 1.0,
            net_budget: f64::INFINITY,
        },
    );
    dep
}

fn assert_partitions_bit_identical(
    ctx: &str,
    fleet: &Result<DeploymentPartition, PartitionError>,
    serial: &Result<DeploymentPartition, PartitionError>,
) {
    match (fleet, serial) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.objective.to_bits(),
                b.objective.to_bits(),
                "{ctx}: objective diverged ({} vs {})",
                a.objective,
                b.objective
            );
            assert_eq!(a.leaves.len(), b.leaves.len(), "{ctx}: leaf count");
            for (la, lb) in a.leaves.iter().zip(&b.leaves) {
                assert_eq!(la.site_ops, lb.site_ops, "{ctx}: placement diverged");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&la.predicted_cpu),
                    bits(&lb.predicted_cpu),
                    "{ctx}: predicted CPU diverged"
                );
                assert_eq!(
                    bits(&la.predicted_net),
                    bits(&lb.predicted_net),
                    "{ctx}: predicted net diverged"
                );
            }
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "{ctx}: feasibility diverged: fleet {:?} vs serial {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

/// `(shape, count, gw_budget, rate)` per request.
type Params = (usize, usize, f64, f64);

/// 200 requests, parameters drawn and then shuffled by a fixed LCG —
/// same-shape requests land adjacent and far apart, with different
/// counts, budgets, and rates in between, so cache hits are served from
/// instances mutated by unrelated requests.
fn shuffled_params(shapes: usize) -> Vec<Params> {
    let mut rng = Lcg(0x5eed_1009);
    let mut params: Vec<Params> = (0..200)
        .map(|_| {
            let shape = rng.pick(shapes);
            let count = 1 + rng.pick(4);
            let gw_budget = [0.05, 0.1, 0.2, 0.4][rng.pick(4)];
            let rate = [0.05, 0.1, 0.2, 0.35][rng.pick(4)];
            (shape, count, gw_budget, rate)
        })
        .collect();
    for i in (1..params.len()).rev() {
        params.swap(i, rng.pick(i + 1));
    }
    params
}

/// The shapes' graph/profile Arcs, shared across every request of a
/// shape — exactly how a fleet client would hold them — plus builders
/// for fleet requests and for the serial oracle.
struct Batch {
    apps: [(Arc<Graph>, Arc<GraphProfile>); 2],
    shapes: Vec<(usize, bool, f64)>,
    cfg: DeploymentConfig,
}

impl Batch {
    fn new() -> Self {
        // 8 distinct shapes: 2 graphs × 2 tree depths × 2 uplink betas.
        let shapes: Vec<(usize, bool, f64)> = [0usize, 1]
            .iter()
            .flat_map(|&g| {
                [false, true]
                    .iter()
                    .flat_map(move |&deep| [1.0f64, 2.5].iter().map(move |&beta| (g, deep, beta)))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(shapes.len(), 8);
        Batch {
            apps: [profiled(0), profiled(1)],
            shapes,
            cfg: DeploymentConfig::default(),
        }
    }

    fn deployment(&self, &(shape, count, gw_budget, _): &Params) -> Deployment {
        let (_, deep, beta) = self.shapes[shape];
        mk_dep(deep, beta, count, gw_budget)
    }

    fn requests(&self, params: &[Params]) -> Vec<FleetRequest> {
        params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (graph, prof) = &self.apps[self.shapes[p.0].0];
                FleetRequest {
                    id: i as u64,
                    graph: Arc::clone(graph),
                    profile: Arc::clone(prof),
                    deployment: self.deployment(p),
                    config: self.cfg.clone(),
                    rate: p.3,
                }
            })
            .collect()
    }

    /// Serial oracle: a fresh encode per request, no shared state at all.
    fn serial(&self, params: &[Params]) -> Vec<Result<DeploymentPartition, PartitionError>> {
        params
            .iter()
            .map(|p| {
                let (graph, prof) = &self.apps[self.shapes[p.0].0];
                partition_deployment(
                    graph,
                    prof,
                    &self.deployment(p),
                    &self.cfg.clone().at_rate(p.3),
                )
            })
            .collect()
    }
}

/// The oracle anchor: shuffled batch through 1, 2, and 8 workers,
/// every response bit-identical to the serial one-shot answer — at the
/// default cache capacity, and at capacity 1, where every worker holding
/// two or more shapes evicts constantly and re-prepares shapes that
/// come back.
#[test]
fn fleet_batch_matches_serial_one_shot() {
    let batch = Batch::new();
    let mut params = shuffled_params(batch.shapes.len());
    // One malformed request mid-batch: a zero rate must cost only its own
    // response (a typed error), never a worker or its cached instance.
    const BAD: usize = 100;
    params.insert(BAD, (0, 2, 0.1, 0.0));
    let serial = batch.serial(&params);

    for cache_capacity in [FleetConfig::default().cache_capacity, 1] {
        for workers in [1usize, 2, 8] {
            let ctx = format!("{workers} workers, capacity {cache_capacity}");
            let (responses, stats) = run_batch(
                FleetConfig {
                    workers,
                    cache_capacity,
                    deterministic: true,
                },
                batch.requests(&params),
            );
            assert_eq!(responses.len(), params.len());
            assert_eq!(stats.requests, params.len() as u64);
            assert_eq!(stats.distinct_shapes, 8, "{ctx}: shape census");
            assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
            assert!(stats.resident_shapes <= (cache_capacity * workers) as u64);
            if cache_capacity >= batch.shapes.len() {
                // ≤ 8 shapes can need at most 8 encodes; everything else
                // must ride `apply_delta` on a cached instance.
                assert_eq!(
                    stats.cache_misses, 8,
                    "{ctx}: every shape encodes exactly once"
                );
                assert_eq!(stats.cache_hits, params.len() as u64 - 8);
                assert_eq!(stats.encodes_avoided, params.len() as u64 - 8);
                assert_eq!((stats.evictions, stats.resident_shapes), (0, 8));
            } else {
                // Shards depend on pointer-keyed hashes, so read which
                // worker got which shapes off the responses. A worker
                // with two or more shapes alternates between them in the
                // shuffled batch, so it evicts, and each returning shape
                // is prepared again.
                let mut per_worker = vec![Vec::new(); workers];
                for resp in &responses {
                    let shape = params[resp.id as usize].0;
                    if !per_worker[resp.worker].contains(&shape) {
                        per_worker[resp.worker].push(shape);
                    }
                }
                let crowded = per_worker.iter().any(|s| s.len() >= 2);
                assert!(crowded || workers >= batch.shapes.len(), "{ctx}");
                assert_eq!(stats.evictions > 0, crowded, "{ctx}: evictions");
                if crowded {
                    assert!(
                        stats.cache_misses > stats.distinct_shapes,
                        "{ctx}: evicted shapes must come back as misses"
                    );
                }
            }
            assert!(
                matches!(responses[BAD].result, Err(PartitionError::Invalid(_))),
                "{ctx}: a zero rate must be rejected, got {:?}",
                responses[BAD].result
            );
            for (resp, oracle) in responses.iter().zip(&serial) {
                assert_partitions_bit_identical(
                    &format!("{ctx}, request {}", resp.id),
                    &resp.result,
                    oracle,
                );
            }
        }
    }
}

/// Zero-count leaves (possible through a `Site` literal) cost only their
/// own responses: one arrives before its shape is cached (a miss, which
/// the prepare rejects), one on a cached shape (a hit, whose delta
/// surgery panics mid-way — the worker answers `Invalid`, drops the
/// half-mutated instance and prepares the shape again on its next
/// request). Every other response stays bit-identical to serial.
#[test]
fn zero_count_requests_cost_only_their_own_response() {
    let batch = Batch::new();
    let mut params = shuffled_params(batch.shapes.len());
    // The hit lands on the batch's last shape, so that shape is requested
    // again after the poisoned instance is dropped.
    let hot = params[params.len() - 1].0;
    const ON_HIT: usize = 150;
    params.insert(ON_HIT, (hot, 0, 0.1, 0.2));
    params.insert(0, (params[0].0, 0, 0.1, 0.2));
    let serial = batch.serial(&params);

    let (responses, stats) = run_batch(
        FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        },
        batch.requests(&params),
    );

    for (bad, what) in [(0, "miss"), (ON_HIT + 1, "hit")] {
        assert_eq!(
            responses[bad].cache_hit,
            what == "hit",
            "zero count as a {what}"
        );
        assert!(
            matches!(responses[bad].result, Err(PartitionError::Invalid(_))),
            "zero count as a {what}: got {:?}",
            responses[bad].result
        );
    }
    assert_eq!(stats.distinct_shapes, 8);
    // 8 first encodes, the rejected zero-count prepare, and the re-prepare
    // of the instance dropped after the panic.
    assert_eq!(stats.cache_misses, 10);
    assert_eq!(
        stats.evictions, 0,
        "dropping a poisoned entry is no eviction"
    );
    let serial_errors = serial.iter().filter(|r| r.is_err()).count() as u64;
    assert_eq!(stats.errors, serial_errors);
    for (resp, oracle) in responses.iter().zip(&serial) {
        assert_partitions_bit_identical(&format!("request {}", resp.id), &resp.result, oracle);
    }
}

/// The cacheless arm must also match serial answers — it is the bench's
/// cold baseline, and "cold" may not mean "different".
#[test]
fn cacheless_fleet_matches_serial_one_shot() {
    let (graph, prof) = profiled(0);
    let cfg = DeploymentConfig::default();
    let params: Vec<(usize, f64)> = vec![(1, 0.1), (3, 0.2), (2, 0.35), (4, 0.05)];
    let serial: Vec<_> = params
        .iter()
        .map(|&(count, rate)| {
            partition_deployment(
                &graph,
                &prof,
                &mk_dep(false, 1.0, count, 0.2),
                &cfg.clone().at_rate(rate),
            )
        })
        .collect();
    let requests: Vec<FleetRequest> = params
        .iter()
        .enumerate()
        .map(|(i, &(count, rate))| FleetRequest {
            id: i as u64,
            graph: Arc::clone(&graph),
            profile: Arc::clone(&prof),
            deployment: mk_dep(false, 1.0, count, 0.2),
            config: cfg.clone(),
            rate,
        })
        .collect();
    let (responses, stats) = run_batch(
        FleetConfig {
            workers: 2,
            cache_capacity: 0,
            deterministic: true,
        },
        requests,
    );
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.encodes_avoided, 0);
    assert_eq!((stats.evictions, stats.resident_shapes), (0, 0));
    for (resp, oracle) in responses.iter().zip(&serial) {
        assert_partitions_bit_identical(
            &format!("cacheless request {}", resp.id),
            &resp.result,
            oracle,
        );
    }
}
