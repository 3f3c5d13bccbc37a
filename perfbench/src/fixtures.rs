//! Profiled applications and the deployment shapes the workloads draw
//! from.

use std::sync::Arc;
use std::time::Instant;

use wishbone::prelude::*;

use crate::util::secs;

/// A profiled application, shared by every request over it.
pub struct App {
    pub graph: Arc<Graph>,
    pub profile: Arc<GraphProfile>,
    /// Simulator feeds: the profiling traces replayed at their rates.
    pub feeds: Vec<SourceFeed>,
    /// Wall-clock of the `profile()` call, seconds.
    pub profile_s: f64,
}

fn profiled(mut graph: Graph, traces: Vec<SourceTrace>) -> App {
    let t = Instant::now();
    let prof = profile(&mut graph, &traces).expect("benchmark apps profile cleanly");
    let profile_s = secs(t);
    let feeds = traces
        .into_iter()
        .map(|t| SourceFeed {
            source: t.source,
            trace: t.elements,
            rate_hz: t.rate_hz,
        })
        .collect();
    App {
        graph: Arc::new(graph),
        profile: Arc::new(prof),
        feeds,
        profile_s,
    }
}

/// The EEG seizure-onset app at `channels` montage channels.
pub fn eeg(channels: usize) -> App {
    let app = build_eeg_app(EegParams {
        n_channels: channels,
        ..Default::default()
    });
    let traces = app.traces(4, 1..3, 7);
    profiled(app.graph, traces)
}

/// The speech-detection MFCC app.
pub fn speech() -> App {
    let app = build_speech_app(SpeechParams::default());
    let trace = app.trace(40, 1);
    profiled(app.graph, vec![trace])
}

/// One ward of a forest: its gateway's backhaul and the caps behind it.
#[derive(Debug, Clone, Copy)]
pub struct Ward {
    pub count: usize,
    /// The gateway's backhaul budget, bytes/second.
    pub backhaul: f64,
    /// The backhaul's bandwidth weight in the objective.
    pub beta: f64,
    /// Whether the gateway's CPU is budgeted (a finite row) or free.
    pub gw_cpu_budgeted: bool,
    /// Aggregate cap-to-gateway link capacity per cap, bytes/second.
    pub link_per_cap: f64,
}

impl Ward {
    /// A forest_eeg-style ward: β = 1, budgeted gateway, 60 B/s of ward
    /// link per cap (the example's 1 200 B/s over 20 caps).
    pub fn eeg(count: usize, backhaul: f64) -> Self {
        Ward {
            count,
            backhaul,
            beta: 1.0,
            gw_cpu_budgeted: true,
            link_per_cap: 60.0,
        }
    }
}

/// A roomy WiFi backhaul, bytes/second.
pub const ROOMY_BACKHAUL: f64 = 400_000.0;

/// A forest: server ← one phone gateway per ward ← that ward's caps.
/// Sites: 0 = server, then per ward `w` its gateway `1 + 2w` and its caps
/// `2 + 2w`.
pub fn forest(wards: &[Ward]) -> Deployment {
    let mote = Platform::tmote_sky();
    let relay = Platform::iphone();
    let mut dep = Deployment::new(Site::server("server", &Platform::server()));
    let root = dep.root();
    for (w, ward) in wards.iter().enumerate() {
        let gw_site = if ward.gw_cpu_budgeted {
            Site::new(format!("gw-{w}"), &relay)
        } else {
            Site::server(format!("gw-{w}"), &relay)
        };
        let gw = dep.attach(
            root,
            gw_site,
            LinkSpec {
                beta: ward.beta,
                net_budget: ward.backhaul,
            },
        );
        dep.attach(
            gw,
            Site::new(format!("ward-{w}"), &mote).with_count(ward.count),
            LinkSpec {
                beta: 1.0,
                net_budget: ward.link_per_cap * ward.count as f64,
            },
        );
    }
    dep
}

/// The runtime view of a deployment for the tree simulator: site `i` of
/// the deployment is site `i` of the topology, every uplink a WiFi-class
/// channel at its budget (mote-class hops at the mote radio's goodput).
pub fn tree_topology(dep: &Deployment) -> TreeTopology {
    let n = dep.len();
    let mut topo = TreeTopology {
        parent: vec![None; n],
        platforms: Vec::with_capacity(n),
        counts: Vec::with_capacity(n),
        uplink: vec![None; n],
    };
    for s in dep.site_ids() {
        let site = dep.site(s);
        topo.platforms.push(site.platform.clone());
        topo.counts.push(site.count);
        topo.parent[s.0] = dep.parent(s).map(|p| p.0);
        if let Some(link) = dep.uplink(s) {
            let cap = if link.net_budget.is_finite() {
                link.net_budget
            } else {
                site.platform.radio.goodput_bytes_per_sec
            };
            topo.uplink[s.0] = Some(ChannelParams::wifi(cap));
        }
    }
    topo
}

/// The simulator routes of a placement: one per leaf class, every class
/// driven by the app's feeds.
pub fn routes(part: &DeploymentPartition, app: &App) -> Vec<LeafRoute> {
    part.leaves
        .iter()
        .map(|l| LeafRoute {
            path: l.path.iter().map(|s| s.0).collect(),
            site_ops: l.site_ops.clone(),
            feeds: app.feeds.clone(),
        })
        .collect()
}
