//! What a workload run reports: its metrics, answer counts and check
//! failures, and the full record written next to the one-line result.

use std::time::Instant;

use crate::spans::Breakdown;
use crate::util::{quantile, secs, Json, Rng};

/// One reported quantity, with its sample count and dispersion where it
/// is an order statistic over samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from (1 for a single measurement).
    pub samples: usize,
    /// 25th and 75th percentile of those samples, when there are several.
    pub quartiles: Option<(f64, f64)>,
}

impl Metric {
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: 1,
            quartiles: None,
        }
    }

    /// The `q` quantile of `samples`, each scaled by `scale` (e.g. seconds
    /// to milliseconds).
    pub fn quantile(
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        q: f64,
        scale: f64,
    ) -> Self {
        Metric {
            name,
            unit,
            value: quantile(samples, q) * scale,
            samples: samples.len(),
            quartiles: (samples.len() > 1).then(|| {
                (
                    quantile(samples, 0.25) * scale,
                    quantile(samples, 0.75) * scale,
                )
            }),
        }
    }

    /// The median of `samples`, each scaled by `scale`.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64], scale: f64) -> Self {
        Self::quantile(name, unit, samples, 0.5, scale)
    }

    /// The mean of `samples` (counts and ratios), with quartiles.
    pub fn mean(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        Metric {
            value: crate::util::mean(samples),
            ..Self::quantile(name, unit, samples, 0.5, 1.0)
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.into())),
            ("samples", Json::Int(self.samples as i64)),
        ];
        if let Some((p25, p75)) = self.quartiles {
            pairs.push(("p25", Json::Num(p25)));
            pairs.push(("p75", Json::Num(p75)));
        }
        Json::obj(pairs)
    }
}

/// A finished workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers attempted in the timed phase(s).
    pub attempted: u64,
    /// Answers that errored, came back unproven, or failed a check.
    pub failed: u64,
    /// Human-readable reasons for the failures (first few kept).
    pub failures: Vec<String>,
    /// Benchmark-level faults that make the whole run untrustworthy (a
    /// stage mirror that no longer reproduces the prepared instance).
    pub faults: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub breakdown: Option<Breakdown>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn e2e(&mut self, m: Metric) {
        self.end_to_end.push(m);
    }

    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }
}

/// Render a metric list as the result line's `metrics` object.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Render a metric list with sample counts and quartiles.
pub fn metrics_json_full(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.to_json()))
            .collect(),
    )
}

/// The timed loop of the single-caller workloads: whole passes over a
/// pool of `pool_len` inputs, each pass in a fresh seeded order. Another
/// pass starts only while it is projected (at the mean pass time so far)
/// to end within `budget` seconds, and at least one pass runs, so every
/// run answers each input equally often. After each answer `between` is
/// called with the phase's elapsed seconds and returns the seconds it has
/// spent in total (set-up samples), which are kept out of the phase.
/// Returns the answers and the elapsed seconds; failed answers are
/// counted in `out`.
pub fn passes<A>(
    pool_len: usize,
    rng: &mut Rng,
    budget: f64,
    mut answer: impl FnMut(usize) -> Result<A, String>,
    mut between: impl FnMut(f64) -> f64,
    out: &mut Outcome,
) -> (Vec<A>, f64) {
    let t = Instant::now();
    let mut spent = 0.0;
    let mut done = Vec::new();
    let mut n = 0.0;
    while n == 0.0 || (secs(t) - spent) * (n + 1.0) / n <= budget {
        let mut order: Vec<usize> = (0..pool_len).collect();
        rng.shuffle(&mut order);
        for i in order {
            out.attempted += 1;
            match answer(i) {
                Ok(a) => done.push(a),
                Err(e) => out.fail(format!("input {i}: {e}")),
            }
            spent = between(secs(t) - spent);
        }
        n += 1.0;
    }
    (done, secs(t) - spent)
}

/// Times set-ups in `SETUP_REPEATS` bursts of `SETUP_BURST`, the bursts
/// spread evenly over a timed phase, so `setup_s` (the median of all of
/// them) samples the whole run on a host whose speed drifts. The first
/// set-up of a burst runs on caches the answers just filled; the median
/// lands on the later ones, so it measures the set-up work rather than
/// what ran before it. The caller asks at each answer boundary; the time
/// spent setting up is reported so the caller can keep it out of its
/// answer rate.
pub struct SetupSampler<S, T> {
    setup: S,
    teardown: T,
    every_s: f64,
    bursts: usize,
    times: Vec<f64>,
    /// Wall time spent in set-ups and teardowns so far, seconds.
    pub spent_s: f64,
}

impl<X, S: FnMut() -> X, T: FnMut(X)> SetupSampler<S, T> {
    /// A sampler for a timed phase of `budget` seconds.
    pub fn new(budget: f64, setup: S, teardown: T) -> Self {
        SetupSampler {
            setup,
            teardown,
            every_s: budget / crate::SETUP_REPEATS as f64,
            bursts: 0,
            times: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Time one burst when `elapsed` (seconds into the phase) has reached
    /// the next sampling point.
    pub fn tick(&mut self, elapsed: f64) {
        if self.bursts < crate::SETUP_REPEATS && elapsed >= self.every_s * self.bursts as f64 {
            self.burst();
        }
    }

    fn burst(&mut self) {
        let t0 = Instant::now();
        for _ in 0..crate::SETUP_BURST {
            let t = Instant::now();
            let s = (self.setup)();
            self.times.push(secs(t));
            (self.teardown)(s);
        }
        self.bursts += 1;
        self.spent_s += secs(t0);
    }

    /// `setup_s`, after topping up to `SETUP_REPEATS` bursts if the phase
    /// ended early.
    pub fn finish(mut self) -> Metric {
        while self.bursts < crate::SETUP_REPEATS {
            self.burst();
        }
        Metric::median("setup_s", "s", &self.times, 1.0)
    }
}
