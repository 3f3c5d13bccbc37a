//! End-to-end tests of multi-tier deployments.
//!
//! The correctness anchor is differential parity: for k = 2 the
//! deployment pipeline's monotone cut must return the same operator
//! assignment, objective, and verdict as the §4.2.1 binary restricted
//! encoder solved directly on the apps-crate graphs, on both simplex
//! backends (the same way the dense tableau anchored the sparse revised
//! simplex). On top of that, 3-tier chains are checked for structural
//! invariants and wired through the tiered deployment simulator.

use wishbone::core::encode;
use wishbone::ilp::IlpOptions;
use wishbone::prelude::*;

/// A 2-site deployment against the restricted binary encoder of the same
/// merged partition graph. The oracle is encoded once at unit rate with
/// its budgets divided by the probe rate (load is linear in rate, §4.3),
/// so its optimum times the rate is the deployment's objective.
fn parity_on(
    graph: &Graph,
    prof: &GraphProfile,
    node_platform: &Platform,
    rates: &[f64],
    backend: SolverBackend,
) {
    let (cpu, net) = (
        node_platform.cpu_budget_fraction,
        node_platform.radio.goodput_bytes_per_sec,
    );
    let pg = build_partition_graph(graph, prof, node_platform, Mode::Permissive, 1.0).unwrap();
    let pg = preprocess(&pg).unwrap().graph;
    let dep = Deployment::chain(&[node_platform.clone(), Platform::server()]);
    let opts = IlpOptions {
        backend,
        ..IlpOptions::default()
    };
    for &rate in rates {
        let cfg = DeploymentConfig {
            ilp: opts.clone(),
            ..DeploymentConfig::default()
        };
        let tiered = partition_deployment(graph, prof, &dep, &cfg.at_rate(rate));
        let oracle = encode(
            &pg,
            Encoding::Restricted,
            &ObjectiveConfig::bandwidth_only(cpu / rate, net / rate),
        );
        match (oracle.problem.solve_ilp(&opts), tiered) {
            (Ok(b), Ok(t)) => {
                assert_eq!(
                    pg.expand(&oracle.decode(&b.values)),
                    t.leaves[0].site_ops[0],
                    "node assignment diverged at rate {rate} on {backend:?}"
                );
                let want = b.objective * rate;
                assert!(
                    (want - t.objective).abs() < 1e-9 * (1.0 + want.abs()),
                    "objective diverged at rate {rate}: {want} vs {}",
                    t.objective
                );
                assert_eq!(
                    (oracle.problem.num_vars(), oracle.problem.num_constraints()),
                    t.problem_size,
                    "the k=2 encoding must be the binary encoding, row for row"
                );
                assert_eq!(t.ilp_stats.backend, backend);
            }
            (Err(_), Err(t)) => {
                assert_eq!(
                    t,
                    PartitionError::Infeasible,
                    "verdicts diverged at rate {rate} on {backend:?}"
                )
            }
            (b, t) => panic!("rate {rate} {backend:?}: oracle {b:?} vs deployment {t:?}"),
        }
    }
}

#[test]
fn speech_k2_parity_both_backends() {
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(40, 42);
    let prof = profile(&mut app.graph, &[trace]).unwrap();
    let mote = Platform::tmote_sky();
    // 0.125 fits a prefix on the mote; 4.0 is hopeless (pinned source
    // alone overruns): both Ok and Err verdicts must agree.
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        parity_on(&app.graph, &prof, &mote, &[0.125, 0.5, 4.0], backend);
    }
}

#[test]
fn eeg_k2_parity_both_backends() {
    let mut app = build_eeg_channel();
    let traces = app.traces(6, 2..4, 9);
    let prof = profile(&mut app.graph, &traces).unwrap();
    for platform in [Platform::tmote_sky(), Platform::nokia_n80()] {
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            parity_on(&app.graph, &prof, &platform, &[0.25, 1.0], backend);
        }
    }
}

#[test]
fn eeg_three_tier_structure_and_rate_dominance() {
    let mut app = build_eeg_app(EegParams {
        n_channels: 4,
        ..Default::default()
    });
    let traces = app.traces(6, 2..4, 13);
    let prof = profile(&mut app.graph, &traces).unwrap();
    let mote = Platform::tmote_sky();
    let chain = [mote.clone(), Platform::iphone(), Platform::server()];

    let dep3 = Deployment::chain(&chain);
    let cfg = DeploymentConfig::default();
    let part = partition_deployment(&app.graph, &prof, &dep3, &cfg.clone().at_rate(0.5))
        .expect("3-tier feasible at half rate");
    let part = &part.leaves[0];
    assert_eq!(part.path.len(), 3);
    // Tier order is monotone along every dataflow edge.
    for eid in app.graph.edge_ids() {
        let e = app.graph.edge(eid);
        assert!(part.position_of(e.src).unwrap() <= part.position_of(e.dst).unwrap());
    }
    // Sources sit on the motes, the sink on the server.
    for &src in &app.sources {
        assert_eq!(part.position_of(src), Some(0));
    }
    assert_eq!(part.position_of(app.sink), Some(2));
    // Budgets hold on every constrained tier and link.
    for (t, &site) in part.path.iter().enumerate() {
        let budget = dep3.site(site).cpu_budget;
        if budget.is_finite() {
            assert!(part.predicted_cpu[t] <= budget * 0.5 + 1e-9);
        }
        if let Some(link) = dep3.uplink(site) {
            assert!(part.predicted_net[t] <= link.net_budget * 0.5 + 1e-9);
        }
    }

    // Adding a relay can only help: the 3-tier max sustainable rate is at
    // least the binary mote→server rate (a 2-tier solution embeds as a
    // 3-tier one with an empty phone tier; the phone's WiFi uplink dwarfs
    // the mote radio, so pass-through always fits).
    let two = max_sustainable_rate_deployment(
        &app.graph,
        &prof,
        &Deployment::chain(&[mote, Platform::server()]),
        &cfg,
        32.0,
        0.02,
    )
    .unwrap()
    .expect("2-tier feasible");
    let three = max_sustainable_rate_deployment(&app.graph, &prof, &dep3, &cfg, 32.0, 0.02)
        .unwrap()
        .expect("3-tier feasible");
    assert!(
        three.rate >= two.rate * (1.0 - 0.05),
        "3-tier rate {} must not trail 2-tier rate {}",
        three.rate,
        two.rate
    );
    assert_eq!(three.encodes, 1, "one encode for the whole search");
}

#[test]
fn tiered_deployment_simulates_goodput_across_both_hops() {
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(40, 7);
    let prof = profile(&mut app.graph, std::slice::from_ref(&trace)).unwrap();
    let chain = [
        Platform::tmote_sky(),
        Platform::gumstix(),
        Platform::server(),
    ];
    let rate = 0.125;
    let part = partition_deployment(
        &app.graph,
        &prof,
        &Deployment::chain(&chain),
        &DeploymentConfig::default().at_rate(rate),
    )
    .expect("feasible at 1/8 rate");

    let cfg = SimulationConfig {
        duration_s: 5.0,
        rate_multiplier: rate,
        ..SimulationConfig::motes(2, 3)
    };
    let feeds = vec![SourceFeed {
        source: app.source,
        trace: trace.elements.clone(),
        rate_hz: trace.rate_hz,
    }];
    let r = simulate_tiered_deployment(
        &app.graph,
        &part.leaves[0].site_ops,
        &feeds,
        &chain,
        &[ChannelParams::mote(), ChannelParams::wifi(400_000.0)],
        &cfg,
    );
    assert!(r.events_offered > 0);
    assert!(
        r.input_processed_ratio() > 0.9,
        "partitioned rate must be sustainable: {}",
        r.input_processed_ratio()
    );
    // Both hops were exercised and neither collapsed: the partitioner's
    // per-link budgets kept each offered load under its channel capacity.
    assert!(r.hop_elements_sent[0] > 0);
    assert!(r.hop_elements_sent[1] > 0);
    assert!(r.hop_offered_load_bytes_per_sec[0] <= ChannelParams::mote().capacity_bytes_per_sec);
    assert!(r.hop_offered_load_bytes_per_sec[1] <= 400_000.0);
    assert!(r.goodput_ratio() > 0.5, "goodput {}", r.goodput_ratio());
    assert_eq!(r.sink_arrivals, r.hop_elements_delivered[1]);
}

#[test]
fn mixed_classes_still_compose_with_multitier_chains() {
    // A §9 mixed network (a star of leaf classes) and a chain answer
    // different questions about the same program; a single-class star is
    // the 2-site chain, and its node counts scale only the shared uplink,
    // never the per-device placement (4 nodes, each with its own radio
    // goodput).
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(40, 21);
    let prof = profile(&mut app.graph, &[trace]).unwrap();
    let gumstix = Platform::gumstix();
    let cfg = DeploymentConfig::default();
    let star = Deployment::binary(
        Site::new("microservers", &gumstix).with_count(4),
        LinkSpec {
            beta: 1.0,
            net_budget: 4.0 * gumstix.radio.goodput_bytes_per_sec,
        },
    );
    let mixed = partition_deployment(&app.graph, &prof, &star, &cfg).unwrap();
    let tiered = partition_deployment(
        &app.graph,
        &prof,
        &Deployment::chain(&[gumstix, Platform::server()]),
        &cfg,
    )
    .unwrap();
    assert_eq!(mixed.leaves[0].site_ops, tiered.leaves[0].site_ops);
    assert_eq!(
        mixed.leaves[0].link_cut_edges,
        tiered.leaves[0].link_cut_edges
    );
}
