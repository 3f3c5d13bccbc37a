//! End-to-end coverage for the two example scenarios that previously had
//! no test: the §9 mixed-network deployment (`examples/mixed_network.rs`)
//! and the §7.3 overload pipeline (`examples/overload_deployment.rs`).
//! Locking their semantics here means a solver swap (dense tableau →
//! sparse revised simplex) cannot silently change what the examples
//! print.

use std::collections::HashSet;

use wishbone::prelude::*;

fn speech_profiled() -> (SpeechApp, GraphProfile) {
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 7);
    let prof = profile(&mut app.graph, &[trace]).expect("profiling succeeds");
    (app, prof)
}

/// The paper's node/server split on `mote` with the uplink budgeted at
/// the measured network profile (§7.3.1).
fn overload_deployment(mote: &Platform, net_budget: f64) -> Deployment {
    Deployment::binary(
        Site::new(mote.name.clone(), mote),
        LinkSpec {
            beta: 1.0,
            net_budget,
        },
    )
}

#[test]
fn mixed_network_two_classes_semantics() {
    // The examples/mixed_network.rs scenario: 16 slowed TMotes + 4
    // Gumstix microservers running one logical speech program, as two
    // leaf classes under the server. Each class's uplink is budgeted at
    // its per-node radio goodput times its node count.
    let (app, prof) = speech_profiled();
    let mote = Platform::tmote_sky();
    let gumstix = Platform::gumstix();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    let motes = dep.attach(
        root,
        Site::new("motes", &mote)
            .with_count(16)
            .with_cpu_budget(mote.cpu_budget_fraction / mote.os_overhead)
            .at_rate(0.1),
        LinkSpec {
            beta: 1.0,
            net_budget: 16.0 * mote.radio.goodput_bytes_per_sec,
        },
    );
    let gums = dep.attach(
        root,
        Site::new("microservers", &gumstix).with_count(4),
        LinkSpec {
            beta: 1.0,
            net_budget: 4.0 * gumstix.radio.goodput_bytes_per_sec,
        },
    );
    let part = partition_deployment(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("both classes partition");

    assert_eq!(part.leaves.len(), 2);
    let mote_part = part.leaf(motes).unwrap();
    let gum_part = part.leaf(gums).unwrap();

    // Each class keeps the pinned source on the node and respects its own
    // budgets at its own rate.
    assert!(mote_part.site_ops[0].contains(&app.source));
    assert!(gum_part.site_ops[0].contains(&app.source));
    assert!(
        mote_part.predicted_cpu[0] <= 1.0 + 1e-9,
        "mote cpu {}",
        mote_part.predicted_cpu[0]
    );
    // The microserver class runs the full 8 kHz and has CPU to spare, so
    // it carries at least as much of the pipeline as the slowed motes.
    assert!(
        gum_part.site_ops[0].len() >= mote_part.site_ops[0].len(),
        "gumstix {} ops vs mote {} ops",
        gum_part.site_ops[0].len(),
        mote_part.site_ops[0].len()
    );

    // "The server would need to be engineered to deal with receiving
    // results ... at various stages of partial processing": the server
    // hosts exactly the operators some class leaves off-node, and every
    // class's cut edge enters it.
    let server_side = part.ops_at(root);
    for id in app.graph.operator_ids() {
        let off_node_somewhere = part.leaves.iter().any(|l| !l.site_ops[0].contains(&id));
        assert_eq!(server_side.contains(&id), off_node_somewhere);
    }
    let entry: HashSet<_> = part
        .leaves
        .iter()
        .flat_map(|l| l.link_cut_edges[0].iter().copied())
        .collect();
    for eid in &entry {
        assert!(server_side.contains(&app.graph.edge(*eid).dst));
    }

    // Aggregate offered load per class = count · per-node net.
    for (leaf, count) in [(mote_part, 16.0), (gum_part, 4.0)] {
        let expect = leaf.predicted_net[0] * count;
        assert!((part.link_net[leaf.leaf.0] - expect).abs() < 1e-9 * (1.0 + expect));
    }
}

#[test]
fn overload_deployment_recommendation_matches_simulation() {
    // The examples/overload_deployment.rs pipeline: profile the network
    // (§7.3.1), binary-search the maximum sustainable rate with the
    // measured budget (§4.3), then validate the recommended cut against
    // a ground-truth deployment simulation of every cutpoint (Figs 9–10).
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 3);
    let prof = profile(&mut app.graph, &[trace]).expect("profiling succeeds");
    let mote = Platform::tmote_sky();

    let channel = ChannelParams::mote();
    let netprof = profile_network(channel, 1, 28, 0.90, 99);
    assert!(
        netprof.max_aggregate_payload_rate > 0.0,
        "network profile must find a usable rate"
    );

    let net_budget = netprof.max_aggregate_payload_rate;
    let dep = overload_deployment(&mote, net_budget);
    let result = max_sustainable_rate_deployment(
        &app.graph,
        &prof,
        &dep,
        &DeploymentConfig::default(),
        8.0,
        0.01,
    )
    .expect("solver ok")
    .expect("feasible at low rate");
    assert!(
        result.rate > 0.0 && result.rate < 8.0,
        "sustainable rate {} must be an interior point",
        result.rate
    );
    // The recommendation is an intermediate cut: real on-node work, and
    // the predicted load fits both measured budgets.
    let cut = &result.partition.leaves[0];
    assert!(!cut.site_ops[0].is_empty());
    assert!(cut.predicted_cpu[0] <= mote.cpu_budget_fraction + 1e-9);
    assert!(cut.predicted_net[0] <= net_budget + 1e-9);

    // Ground truth: simulate the deployment at the recommended rate for
    // every cutpoint; the recommended cut must be competitive with the
    // empirical best (top-2, ≥70% of peak goodput — the same bar
    // end_to_end_speech.rs holds the derated recommendation to).
    let elems = app.trace_elements(200, 11);
    let mut goods: Vec<(String, f64, bool)> = Vec::new();
    for (name, node_set) in app.cutpoints() {
        let dcfg = SimulationConfig {
            duration_s: 20.0,
            rate_multiplier: result.rate,
            ..SimulationConfig::motes(1, 17)
        };
        let report = simulate_deployment(
            &app.graph, &node_set, app.source, &elems, 40.0, &mote, channel, &dcfg,
        );
        let is_recommended = node_set == cut.site_ops[0];
        goods.push((name.to_string(), report.goodput_ratio(), is_recommended));
    }
    let rec = goods
        .iter()
        .find(|(_, _, r)| *r)
        .expect("recommended cut is one of the pipeline cutpoints")
        .1;
    let mut sorted: Vec<f64> = goods.iter().map(|&(_, g, _)| g).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert!(
        rec >= 0.70 * sorted[0],
        "recommended cut goodput {rec} vs empirical best {}",
        sorted[0]
    );
    assert!(
        rec >= sorted[1] - 1e-9,
        "recommendation must be a top-2 cut (got {rec}, second best {})",
        sorted[1]
    );
    assert!(rec > 0.05, "recommended cut must actually deliver data");
}

#[test]
fn overload_pipeline_is_backend_invariant() {
    // The §7.3 pipeline's outcome (rate and chosen cut) must not depend
    // on which simplex backend solved the partitioning ILPs.
    let (app, prof) = speech_profiled();
    let mote = Platform::tmote_sky();
    let channel = ChannelParams::mote();
    let netprof = profile_network(channel, 1, 28, 0.90, 99);
    let mut results = Vec::new();
    let dep = overload_deployment(&mote, netprof.max_aggregate_payload_rate);
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let mut cfg = DeploymentConfig::default();
        cfg.ilp.backend = backend;
        let r = max_sustainable_rate_deployment(&app.graph, &prof, &dep, &cfg, 8.0, 0.01)
            .expect("solver ok")
            .expect("feasible");
        results.push((r.rate, r.partition.leaves[0].site_ops[0].clone()));
    }
    let (dense_rate, dense_cut) = &results[0];
    let (sparse_rate, sparse_cut) = &results[1];
    assert!(
        (dense_rate - sparse_rate).abs() <= 0.02 * dense_rate,
        "dense rate {dense_rate} vs sparse rate {sparse_rate}"
    );
    assert_eq!(dense_cut, sparse_cut, "backends must pick the same cut");
}
