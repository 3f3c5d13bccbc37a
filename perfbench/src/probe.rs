//! The known-defect probe: one malformed request of each kind (rate 0,
//! NaN uplink budget, zero leaf count), each sent to a throwaway
//! `FleetServer` on its own thread under a watchdog. Reported as
//! `fleet.malformed_answered`, never gated: today a rate-0 request trips
//! an assertion inside a worker and a multi-worker server then waits
//! forever for its response, which is why the timed workloads send
//! well-formed requests only.
//!
//! A probe thread that finishes is joined. One that hangs is left
//! blocked: it holds no lock and does no work, and it ends with the
//! process.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use wishbone::prelude::*;

use crate::fixtures::speech;
use crate::util::nproc;

const WATCHDOG: Duration = Duration::from_secs(2);

/// How many of the three malformed requests got any response (a
/// placement or a typed error) within the watchdog.
pub fn malformed_answered() -> usize {
    let app = speech();
    let kinds: [(&str, f64, f64, usize); 3] = [
        ("rate 0", 0.0, 1_000.0, 4),
        ("NaN budget", 0.1, f64::NAN, 4),
        ("zero count", 0.1, 1_000.0, 0),
    ];
    // Worker panics are the defect being probed; keep their messages off
    // the benchmark's output while the probe runs.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut answered = 0;
    for (i, &(_, rate, budget, count)) in kinds.iter().enumerate() {
        let (graph, profile) = (Arc::clone(&app.graph), Arc::clone(&app.profile));
        let (tx, rx) = mpsc::channel();
        let probe = std::thread::spawn(move || {
            let mut dep = Deployment::new(Site::server("server", &Platform::server()));
            let root = dep.root();
            let motes = Site {
                count,
                ..Site::new("motes", &Platform::tmote_sky())
            };
            dep.attach(
                root,
                motes,
                LinkSpec {
                    beta: 1.0,
                    net_budget: budget,
                },
            );
            let mut server = FleetServer::new(nproc().max(2));
            server.submit(FleetRequest {
                id: i as u64,
                graph,
                profile,
                deployment: dep,
                config: DeploymentConfig::default(),
                rate,
            });
            let resp = server.recv();
            let _ = tx.send(resp.is_some());
            drop(server.shutdown());
        });
        match rx.recv_timeout(WATCHDOG) {
            Err(mpsc::RecvTimeoutError::Timeout) => continue, // hung: left blocked
            Ok(got) => answered += usize::from(got),
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }
        // Finished (or panicked): a panic here is the defect being probed.
        let _ = probe.join();
    }
    std::panic::set_hook(hook);
    answered
}
