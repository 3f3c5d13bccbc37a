//! # wishbone-fleet
//!
//! A sharded, cache-deduplicated fleet partitioning service: the
//! ROADMAP's "partitioning as a fleet-scale service" built over the
//! solver stack — PR 2's warm-started prepared instances, PR 7's
//! in-place delta rescales, PR 8's seeded incumbents — with the
//! structure the paper itself predicts (§7, and Wiselib in PAPERS.md):
//! a fleet runs a *small set of program shapes* at many different
//! counts, budgets, and rates.
//!
//! ## Architecture
//!
//! [`FleetServer`] owns N plain `std::thread` workers (no async
//! runtime; the vendored-deps constraint forbids tokio) connected by
//! `std::sync::mpsc` channels. The queue is **sharded, not
//! work-stealing**: every request's [`ShapeKey`] hashes to one worker,
//! so all requests of one shape land on the same worker's
//! [`ShapeCache`] — cache hits are maximized, no cache state is ever
//! shared or locked across threads, and each worker keeps exactly one
//! long-lived [`SimplexWorkspace`] arena that every cached instance
//! solves in ([`PreparedDeployment::solve_at_in`]).
//!
//! ## Cache semantics
//!
//! A [`ShapeCache`] maps [`ShapeKey`]s (quotient-graph structure +
//! platform signatures + link kinds + solver knobs — everything the
//! encoding bakes in, *excluding* leaf counts, finite budget values,
//! and rates) to prepared instances. A hit morphs the cached encoding
//! to the request's counts and budgets with
//! [`deltas_between`]-derived [`apply_delta`] row surgery instead of
//! re-encoding — `encodes()` stays at one per shape, not one per
//! request.
//!
//! The cache is bounded: each worker keeps at most
//! [`FleetConfig::cache_capacity`] prepared instances (64 by default)
//! and, on a miss with a full cache, evicts the least-recently-used one
//! — a fleet's hot shapes stay resident while one-off shapes pass
//! through, so memory stops growing with every new shape. An evicted
//! shape that comes back is a plain miss and is prepared from scratch.
//! Capacity 0 is the cacheless mode: every request prepares from
//! scratch and nothing is kept.
//!
//! A request that panics anywhere in the worker (keying, delta
//! surgery, prepare, solve) costs only its own response: it is answered
//! with [`PartitionError::Invalid`], its shape's cached instance is
//! dropped (a half-applied delta may have left it inconsistent), the
//! worker's arena is replaced, and the worker serves on.
//!
//! Determinism: by default ([`FleetConfig::deterministic`] = true) the
//! worker resets warm-start state between requests, so every response
//! is **bit-identical** to a serial one-shot
//! [`partition_deployment`](wishbone_core::partition_deployment) call —
//! cache hits cannot leak one request's tie-breaking into another's
//! placement (pinned by `tests/fleet_parity.rs`, at the default
//! capacity and at capacity 1, where evictions are constant). Eviction
//! cannot break this: a re-prepared instance solves exactly like the
//! one it replaces. Setting
//! `deterministic: false` lets same-shape requests inherit the previous
//! incumbent (PR 2's rate-probe trick fleet-wide): solves get cheaper,
//! but a tie between equally-optimal placements may then resolve
//! differently than a cold solve would.
//!
//! ## Worker sizing
//!
//! Shapes are the parallelism unit: with S distinct shapes, more than S
//! workers idle (a shape never spans two workers), and the speedup cap
//! is `min(workers, S, cores)`. Size the pool to physical cores when
//! shapes are plentiful, to the shape count when they are few.
//!
//! [`apply_delta`]: PreparedDeployment::apply_delta

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use wishbone_core::topology::{
    Deployment, DeploymentConfig, DeploymentPartition, PreparedDeployment,
};
use wishbone_core::{deltas_between, shape_key, PartitionError, ShapeKey};
use wishbone_dataflow::Graph;
use wishbone_ilp::{PhaseTimes, SimplexWorkspace};
use wishbone_profile::GraphProfile;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker thread count (≥ 1). See the crate docs on worker sizing.
    pub workers: usize,
    /// Prepared instances each worker's [`ShapeCache`] keeps; a miss on
    /// a full cache evicts the least-recently-used one. 0 disables the
    /// cache: every request prepares from scratch — the "cold" arm the
    /// `fleet_scaling` bench compares against. Eviction never changes an
    /// answer (see the crate docs on cache semantics).
    pub cache_capacity: usize,
    /// Reset warm-start state between requests so every response is
    /// bit-identical to a serial one-shot solve (the default). See the
    /// crate docs on cache semantics for what `false` trades away.
    pub deterministic: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 1,
            cache_capacity: 64,
            deterministic: true,
        }
    }
}

/// One deployment request: which profiled graph, over which topology,
/// under which config, at which rate. Graph and profile ride `Arc`s —
/// shape identity is pointer identity (see
/// [`shape_key`]), and the cache co-owns them
/// so prepared instances outlive any single request.
#[derive(Clone)]
pub struct FleetRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The profiled operator graph.
    pub graph: Arc<Graph>,
    /// The profile the partition is priced on.
    pub profile: Arc<GraphProfile>,
    /// The deployment topology to partition.
    pub deployment: Deployment,
    /// Solver configuration (`rate_multiplier` is ignored; use `rate`).
    pub config: DeploymentConfig,
    /// Input-rate multiplier for this solve, composed with each leaf's
    /// `rate_factor`.
    pub rate: f64,
}

/// One answered request.
#[derive(Debug)]
pub struct FleetResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Which worker answered (== the shape's shard).
    pub worker: usize,
    /// Whether a cached prepared instance served the request.
    pub cache_hit: bool,
    /// Wall-clock latency of the request inside its worker, seconds
    /// (queueing excluded).
    pub latency_s: f64,
    /// The placement, or why there is none.
    pub result: Result<DeploymentPartition, PartitionError>,
}

/// Aggregated service statistics, assembled at
/// [`FleetServer::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Requests answered.
    pub requests: u64,
    /// Requests served by a cached prepared instance.
    pub cache_hits: u64,
    /// Requests that had to prepare (build + merge + encode).
    pub cache_misses: u64,
    /// Encodes avoided by the cache: hits, each of which a cacheless
    /// service would have paid a full prepare for.
    pub encodes_avoided: u64,
    /// Distinct shapes seen, summed over workers (shapes never span
    /// workers, so this is a true fleet-wide count) — whether or not
    /// they are still cached. A shape evicted and prepared again counts
    /// once here and twice in `cache_misses`.
    pub distinct_shapes: u64,
    /// Least-recently-used entries dropped to make room, summed over
    /// workers.
    pub evictions: u64,
    /// Prepared instances still cached at shutdown, summed over workers
    /// (at most `cache_capacity × workers`).
    pub resident_shapes: u64,
    /// Requests that returned an error (infeasible, unproven, solver,
    /// invalid input, or a panic caught inside the worker).
    pub errors: u64,
    /// Solve count per worker, index = worker id — the shard balance
    /// view.
    pub per_worker_solves: Vec<u64>,
    /// Per-phase wall-clock cost summed over every successful solve in
    /// the fleet: `encode_s` is stamped by the prepared pipeline
    /// (misses pay it, hits amortize it), the rest by branch-and-bound.
    pub phase_times: PhaseTimes,
    /// Per-request worker-side latencies, seconds, sorted ascending.
    latencies_s: Vec<f64>,
}

impl FleetStats {
    /// Latency percentile in seconds (`p` in 0..=100), by
    /// nearest-rank over the recorded per-request latencies. Zero when
    /// nothing was recorded.
    pub fn latency_percentile_s(&self, p: f64) -> f64 {
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * (self.latencies_s.len() - 1) as f64).round() as usize;
        self.latencies_s[rank.min(self.latencies_s.len() - 1)]
    }

    /// Median worker-side latency, seconds.
    pub fn p50_s(&self) -> f64 {
        self.latency_percentile_s(50.0)
    }

    /// 99th-percentile worker-side latency, seconds.
    pub fn p99_s(&self) -> f64 {
        self.latency_percentile_s(99.0)
    }

    fn record_latency(&mut self, s: f64) {
        self.latencies_s.push(s);
    }

    fn finalize(&mut self) {
        self.latencies_s
            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
}

/// Sum `b` into `a` field-wise (`PhaseTimes` is a foreign plain-data
/// struct without an `Add` impl).
fn add_phase_times(a: &mut PhaseTimes, b: &PhaseTimes) {
    a.encode_s += b.encode_s;
    a.presolve_s += b.presolve_s;
    a.warm_start_s += b.warm_start_s;
    a.nodes_s += b.nodes_s;
}

/// One worker's shape-keyed cache of prepared instances, bounded by
/// entry count with least-recently-used eviction.
///
/// Owned by exactly one worker thread — sharding by shape means no
/// entry is ever contended, so there are no locks anywhere in the
/// service.
pub struct ShapeCache {
    entries: HashMap<ShapeKey, Entry>,
    capacity: usize,
    /// Bumped once per [`serve`](Self::serve); entries record it on use.
    tick: u64,
    evictions: u64,
    /// Fingerprints of every shape ever served — the "distinct shapes
    /// seen" census, 8 bytes a shape instead of a prepared instance.
    seen: HashSet<u64>,
}

struct Entry {
    prep: PreparedDeployment<'static>,
    last_use: u64,
}

/// 64-bit digest of a shape key: the shard selector and the census
/// fingerprint.
fn fingerprint(key: &ShapeKey) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl ShapeCache {
    /// An empty cache holding at most `capacity` prepared instances (0:
    /// hold none, prepare every request from scratch).
    pub fn new(capacity: usize) -> Self {
        ShapeCache {
            entries: HashMap::new(),
            capacity,
            tick: 0,
            evictions: 0,
            seen: HashSet::new(),
        }
    }

    /// Prepared instances currently cached (at most the capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Least-recently-used entries dropped so far to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Distinct shapes served so far, cached or not.
    pub fn distinct_shapes(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key`'s prepared instance is cached: whether
    /// [`serve`](Self::serve) would hit.
    pub fn contains(&self, key: &ShapeKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Drop `key`'s prepared instance, if cached — for an instance a
    /// panicking request may have left half-mutated. Not an eviction.
    pub fn remove(&mut self, key: &ShapeKey) {
        self.entries.remove(key);
    }

    /// Serve one request out of the cache, preparing on miss.
    ///
    /// On a hit the cached encoding is morphed to the request's counts
    /// and budgets via [`deltas_between`] + `apply_delta` — index-stable
    /// row surgery, no re-encode. `deterministic` resets warm-start
    /// state first so the solve is bit-identical to a serial one-shot
    /// (see the crate docs). A miss that prepares successfully is
    /// cached, evicting the least-recently-used entry when full.
    pub fn serve(
        &mut self,
        req: &FleetRequest,
        key: &ShapeKey,
        ws: &mut SimplexWorkspace,
        deterministic: bool,
    ) -> Result<DeploymentPartition, PartitionError> {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.last_use = self.tick;
            let prep = &mut entry.prep;
            let deltas = deltas_between(prep.deployment(), &req.deployment);
            if !deltas.is_empty() {
                prep.apply_delta(&deltas);
            }
            if deterministic {
                prep.reset_warm_start();
            }
            return prep.solve_at_in(req.rate, ws);
        }
        self.seen.insert(fingerprint(key));
        let mut prep = PreparedDeployment::new_shared(
            Arc::clone(&req.graph),
            Arc::clone(&req.profile),
            &req.deployment,
            &req.config,
        )?;
        let result = prep.solve_at_in(req.rate, ws);
        self.insert(key.clone(), prep);
        result
    }

    fn insert(&mut self, key: ShapeKey, prep: PreparedDeployment<'static>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity {
            // Linear scan: at most `capacity` entries, and only on misses.
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
                .expect("a full cache of nonzero capacity has entries");
            self.entries.remove(&lru);
            self.evictions += 1;
        }
        let last_use = self.tick;
        self.entries.insert(key, Entry { prep, last_use });
    }
}

/// What one worker thread reports back when the server shuts down.
struct WorkerReport {
    solves: u64,
    hits: u64,
    misses: u64,
    errors: u64,
    distinct_shapes: u64,
    evictions: u64,
    resident_shapes: u64,
    phase_times: PhaseTimes,
}

fn worker_loop(
    worker: usize,
    cfg: FleetConfig,
    rx: mpsc::Receiver<FleetRequest>,
    tx: mpsc::Sender<FleetResponse>,
) -> WorkerReport {
    let mut cache = ShapeCache::new(cfg.cache_capacity);
    let mut arena = SimplexWorkspace::new();
    let (mut solves, mut hits, mut errors) = (0, 0, 0);
    let mut phase_times = PhaseTimes::default();
    while let Ok(req) = rx.recv() {
        let t = Instant::now();
        // A panic anywhere below answers this request alone; the key (if
        // keying got that far) names the instance it may have poisoned.
        let mut key = None;
        let mut hit = false;
        let served = catch_unwind(AssertUnwindSafe(|| {
            let key = key.insert(shape_key(
                &req.graph,
                &req.profile,
                &req.deployment,
                &req.config,
            ));
            hit = cache.contains(key);
            cache.serve(&req, key, &mut arena, cfg.deterministic)
        }));
        let result = served.unwrap_or_else(|_| {
            if let Some(key) = &key {
                cache.remove(key);
            }
            arena = SimplexWorkspace::new();
            Err(PartitionError::Invalid(
                "the request panicked inside its fleet worker",
            ))
        });
        solves += 1;
        hits += u64::from(hit);
        match &result {
            Ok(part) => add_phase_times(&mut phase_times, &part.ilp_stats.phase_times),
            Err(_) => errors += 1,
        }
        let resp = FleetResponse {
            id: req.id,
            worker,
            cache_hit: hit,
            latency_s: t.elapsed().as_secs_f64(),
            result,
        };
        if tx.send(resp).is_err() {
            break; // server dropped its receiver: shutting down
        }
    }
    WorkerReport {
        solves,
        hits,
        misses: solves - hits,
        errors,
        distinct_shapes: cache.distinct_shapes(),
        evictions: cache.evictions(),
        resident_shapes: cache.len() as u64,
        phase_times,
    }
}

/// The fleet partitioning service: a sharded pool of worker threads,
/// each owning one [`ShapeCache`] and one [`SimplexWorkspace`] arena.
///
/// ```
/// # use std::sync::Arc;
/// # use wishbone_apps::{build_speech_app, SpeechParams};
/// # use wishbone_core::topology::{Deployment, DeploymentConfig, Site};
/// # use wishbone_core::LinkSpec;
/// # use wishbone_fleet::{FleetRequest, FleetServer};
/// # use wishbone_profile::{profile, Platform, SourceTrace};
/// let mut app = build_speech_app(SpeechParams::default());
/// let trace = app.trace(10, 1);
/// let prof = profile(&mut app.graph, &[trace]).unwrap();
/// let (graph, profile) = (Arc::new(app.graph), Arc::new(prof));
///
/// // One shape at three different device counts: one encode, two
/// // in-place rescales.
/// let deploy_at = |count: usize| {
///     let mut dep = Deployment::new(Site::server("srv", &Platform::server()));
///     let root = dep.root();
///     dep.attach(
///         root,
///         Site::new("motes", &Platform::tmote_sky())
///             .with_cpu_budget(1.0)
///             .with_count(count),
///         LinkSpec { beta: 1.0, net_budget: f64::INFINITY },
///     );
///     dep
/// };
///
/// let mut server = FleetServer::new(2);
/// for (i, count) in [4usize, 8, 16].iter().enumerate() {
///     server.submit(FleetRequest {
///         id: i as u64,
///         graph: Arc::clone(&graph),
///         profile: Arc::clone(&profile),
///         deployment: deploy_at(*count),
///         config: DeploymentConfig::default(),
///         rate: 0.5,
///     });
/// }
/// let responses = server.drain();
/// let stats = server.shutdown();
/// assert_eq!(responses.len(), 3);
/// assert_eq!(stats.cache_misses, 1, "one shape, one encode");
/// assert_eq!(stats.encodes_avoided, 2);
/// ```
pub struct FleetServer {
    cfg: FleetConfig,
    txs: Vec<mpsc::Sender<FleetRequest>>,
    rx: mpsc::Receiver<FleetResponse>,
    handles: Vec<JoinHandle<WorkerReport>>,
    outstanding: u64,
    stats: FleetStats,
}

impl FleetServer {
    /// Spawn a server with `workers` threads and default semantics
    /// (64-entry cache per worker, deterministic).
    pub fn new(workers: usize) -> Self {
        Self::with_config(FleetConfig {
            workers,
            ..FleetConfig::default()
        })
    }

    /// Spawn a server with explicit [`FleetConfig`] semantics.
    pub fn with_config(cfg: FleetConfig) -> Self {
        assert!(cfg.workers >= 1, "a fleet needs at least one worker");
        let (resp_tx, resp_rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(cfg.workers);
        let mut handles = Vec::with_capacity(cfg.workers);
        for worker in 0..cfg.workers {
            let (tx, rx) = mpsc::channel::<FleetRequest>();
            let resp_tx = resp_tx.clone();
            let wcfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(worker, wcfg, rx, resp_tx)
            }));
            txs.push(tx);
        }
        FleetServer {
            cfg,
            txs,
            rx: resp_rx,
            handles,
            outstanding: 0,
            stats: FleetStats::default(),
        }
    }

    /// Which worker a shape is sharded to.
    fn shard(&self, key: &ShapeKey) -> usize {
        (fingerprint(key) % self.txs.len() as u64) as usize
    }

    /// Enqueue one request on its shape's shard. Responses arrive via
    /// [`recv`](Self::recv) / [`drain`](Self::drain), unordered across
    /// shards.
    pub fn submit(&mut self, req: FleetRequest) {
        let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
        let shard = self.shard(&key);
        self.outstanding += 1;
        self.txs[shard]
            .send(req)
            .expect("fleet worker hung up with requests outstanding");
    }

    /// Block for the next response; `None` when nothing is outstanding.
    pub fn recv(&mut self) -> Option<FleetResponse> {
        if self.outstanding == 0 {
            return None;
        }
        let resp = self
            .rx
            .recv()
            .expect("fleet workers hung up with requests outstanding");
        self.outstanding -= 1;
        self.stats.record_latency(resp.latency_s);
        Some(resp)
    }

    /// Collect every outstanding response (blocking), unordered.
    pub fn drain(&mut self) -> Vec<FleetResponse> {
        let mut out = Vec::with_capacity(self.outstanding as usize);
        while let Some(resp) = self.recv() {
            out.push(resp);
        }
        out
    }

    /// Shut the pool down: close the request channels, join every
    /// worker, and aggregate [`FleetStats`]. Call after
    /// [`drain`](Self::drain); any still-outstanding responses are
    /// discarded.
    pub fn shutdown(mut self) -> FleetStats {
        drop(self.txs); // workers' recv() errors out: clean exit
        let mut stats = std::mem::take(&mut self.stats);
        stats.per_worker_solves = Vec::with_capacity(self.handles.len());
        for handle in self.handles {
            let report = handle
                .join()
                .expect("fleet worker panicked; its shard's requests are lost");
            stats.requests += report.solves;
            stats.cache_hits += report.hits;
            stats.cache_misses += report.misses;
            stats.encodes_avoided += report.hits;
            stats.distinct_shapes += report.distinct_shapes;
            stats.evictions += report.evictions;
            stats.resident_shapes += report.resident_shapes;
            stats.errors += report.errors;
            stats.per_worker_solves.push(report.solves);
            add_phase_times(&mut stats.phase_times, &report.phase_times);
        }
        stats.finalize();
        stats
    }

    /// The configuration the pool was spawned with.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Requests submitted but not yet collected.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }
}

/// Convenience: spawn a server, run one batch through it, and shut it
/// down. Responses come back **sorted by request id**, so callers
/// compare against serial baselines without tracking arrival order.
pub fn run_batch(
    cfg: FleetConfig,
    requests: Vec<FleetRequest>,
) -> (Vec<FleetResponse>, FleetStats) {
    let mut server = FleetServer::with_config(cfg);
    for req in requests {
        server.submit(req);
    }
    let mut responses = server.drain();
    responses.sort_by_key(|r| r.id);
    let stats = server.shutdown();
    (responses, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wishbone_core::topology::Site;
    use wishbone_core::LinkSpec;
    use wishbone_dataflow::{ExecCtx, FnWork, GraphBuilder, Value};
    use wishbone_profile::{profile, Platform, SourceTrace};

    /// A two-stage reducing pipeline, profiled.
    fn profiled() -> (Arc<Graph>, Arc<GraphProfile>) {
        let mut b = GraphBuilder::new();
        b.enter_node_namespace();
        let src = b.source("src");
        let mut prev = src;
        for s in 0..2u64 {
            prev = b.transform(
                format!("stage{s}"),
                Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                    let w = v.as_i16s().expect("fixture emits i16 windows");
                    cx.meter().loop_scope(500 * (s + 1), |m| m.int(500));
                    cx.emit(Value::VecI16(w.iter().step_by(2).copied().collect()));
                })),
                prev,
            );
        }
        b.exit_namespace();
        b.sink("out", prev);
        let mut g = b.finish().expect("fixture graph builds");
        let trace = SourceTrace {
            source: src.0,
            elements: (0..8).map(|i| Value::VecI16(vec![i as i16; 64])).collect(),
            rate_hz: 25.0,
        };
        let prof = profile(&mut g, &[trace]).expect("fixture graph profiles");
        (Arc::new(g), Arc::new(prof))
    }

    /// Motes under a server; `beta` is part of the shape, `count` is not.
    fn request(app: &(Arc<Graph>, Arc<GraphProfile>), beta: f64, count: usize) -> FleetRequest {
        let mut dep = Deployment::new(Site::server("srv", &Platform::server()));
        let root = dep.root();
        dep.attach(
            root,
            Site::new("motes", &Platform::tmote_sky()).with_count(count),
            LinkSpec {
                beta,
                net_budget: f64::INFINITY,
            },
        );
        FleetRequest {
            id: 0,
            graph: Arc::clone(&app.0),
            profile: Arc::clone(&app.1),
            deployment: dep,
            config: DeploymentConfig::default(),
            rate: 0.2,
        }
    }

    #[test]
    fn lru_bound_evicts_the_least_recently_used_shape() {
        let app = profiled();
        let mut cache = ShapeCache::new(2);
        let mut ws = SimplexWorkspace::new();
        let mut serve = |cache: &mut ShapeCache, beta: f64, count: usize| {
            let req = request(&app, beta, count);
            let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
            let hit = cache.contains(&key);
            let result = cache.serve(&req, &key, &mut ws, true);
            assert!(result.is_ok(), "beta {beta}: {result:?}");
            hit
        };
        // Five shapes through two slots; shape 1.0 is re-touched before
        // every new shape, so it is always the most recently used.
        assert!(!serve(&mut cache, 1.0, 2));
        for (i, beta) in [1.5, 2.0, 2.5, 3.0].into_iter().enumerate() {
            assert!(!serve(&mut cache, beta, 2), "beta {beta} is new");
            assert!(cache.len() <= 2);
            assert!(serve(&mut cache, 1.0, 3 + i), "the hot shape survives");
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 3);
        assert_eq!(cache.distinct_shapes(), 5);
        assert!(serve(&mut cache, 3.0, 4), "the newest one-off is resident");
        assert!(!serve(&mut cache, 1.5, 4), "an evicted shape misses");
        assert_eq!(cache.distinct_shapes(), 5, "a returning shape is not new");
        assert_eq!(cache.evictions(), 4);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let app = profiled();
        let mut cache = ShapeCache::new(0);
        let mut ws = SimplexWorkspace::new();
        for count in [2, 3] {
            let req = request(&app, 1.0, count);
            let key = shape_key(&req.graph, &req.profile, &req.deployment, &req.config);
            assert!(cache.serve(&req, &key, &mut ws, true).is_ok());
            assert!(!cache.contains(&key));
        }
        assert!(cache.is_empty());
        assert_eq!((cache.evictions(), cache.distinct_shapes()), (0, 1));
    }
}
