//! §9 extension: mixed networks. "A single logical node partition can take
//! on different physical partitions at different nodes ... by running the
//! partitioning algorithm once for each type of node."
//!
//! Scenario: a deployment with 16 TMote Sky motes and 4 Gumstix
//! microservers all running the same speech-detection program.
//!
//! Run with: `cargo run --release --example mixed_network`

use std::collections::HashSet;

use wishbone::prelude::*;

fn main() {
    let mut app = build_speech_app(SpeechParams::default());
    let trace = app.trace(120, 7);
    let prof = profile(&mut app.graph, &[trace]).expect("profiling succeeds");

    // One leaf class per node type under the server. Each class's uplink
    // is budgeted at its per-node radio goodput times its node count.
    let mote = Platform::tmote_sky();
    let gumstix = Platform::gumstix();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    dep.attach(
        root,
        // Motes run at a reduced rate (their radio share of the channel),
        // with the CPU budget derated by the measured OS overhead.
        Site::new(mote.name.clone(), &mote)
            .with_count(16)
            .with_cpu_budget(mote.cpu_budget_fraction / mote.os_overhead)
            .at_rate(0.1),
        LinkSpec {
            beta: 1.0,
            net_budget: 16.0 * mote.radio.goodput_bytes_per_sec,
        },
    );
    dep.attach(
        root,
        Site::new(gumstix.name.clone(), &gumstix).with_count(4),
        LinkSpec {
            beta: 1.0,
            net_budget: 4.0 * gumstix.radio.goodput_bytes_per_sec,
        },
    );

    let part = partition_deployment(&app.graph, &prof, &dep, &DeploymentConfig::default())
        .expect("both classes partition");
    println!("mixed deployment: one logical program, two physical partitions\n");
    for leaf in &part.leaves {
        let site = dep.site(leaf.leaf);
        let last = app
            .stages
            .iter()
            .rev()
            .find(|(_, id)| leaf.site_ops[0].contains(id))
            .map(|&(n, _)| n)
            .unwrap_or("nothing");
        println!(
            "{:>9} x{:<3} -> {} ops on-node (cut after '{}'), cpu {:.1}%, net {:.0} B/s",
            site.name,
            site.count,
            leaf.site_ops[0].len(),
            last,
            leaf.predicted_cpu[0] * 100.0,
            leaf.predicted_net[0]
        );
    }
    println!("solver (one joint ILP): {}", report_stats(&part.ilp_stats));
    let entry: HashSet<_> = part
        .leaves
        .iter()
        .flat_map(|l| l.link_cut_edges[0].iter().copied())
        .collect();
    println!(
        "\nserver must accept partial results at {} distinct cut edges; \
         aggregate offered load {:.0} B/s",
        entry.len(),
        part.link_net.iter().sum::<f64>()
    );
    println!(
        "server-side code covers {} of {} operators (union across classes)",
        part.ops_at(root).len(),
        app.graph.operator_count()
    );
}
