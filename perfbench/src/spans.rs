//! In-memory spans for the traced run.
//!
//! Each span is recorded by the benchmark around one call into a layer's
//! public API (`timed`), or reconstructed from a duration the program
//! reports about a call the benchmark timed (`derived`: the IlpStats
//! phase times of a solve, a fleet worker's service time). Spans of one
//! answer share its id; the answer's root span has no parent. Nothing is
//! written until the run ends.

use std::io::Write as _;
use std::time::Instant;

use crate::util::{mean, quantile, Json};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub answer: u64,
    pub derived: bool,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A span recorder. When disabled every call is a no-op and returns
/// `None`, so the untraced phase pays one branch per boundary.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

pub type SpanId = Option<usize>;

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, answer: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let t = self.now();
        self.spans.push(Span {
            name,
            start_s: t,
            end_s: t,
            parent,
            answer,
            derived: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span now; returns its duration, seconds (0 when disabled).
    pub fn close(&mut self, id: SpanId) -> f64 {
        match id {
            Some(i) => {
                let t = self.now();
                self.spans[i].end_s = t;
                self.spans[i].dur()
            }
            None => 0.0,
        }
    }

    /// Time `f` as a child of `parent`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        answer: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, answer);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Record a span of a reported duration `dur_s` starting at `start_s`.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: SpanId,
        answer: u64,
        start_s: f64,
        dur_s: f64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s + dur_s.max(0.0),
            parent,
            answer,
            derived: true,
        });
        Some(self.spans.len() - 1)
    }

    /// The spans a branch-and-bound solve reports about itself, under
    /// `parent` from `at`: `ilp.solve` (its total time) with its
    /// presolve, warm-start and node phases laid out inside it.
    pub fn ilp(&mut self, stats: &wishbone::ilp::IlpStats, parent: SpanId, answer: u64, at: f64) {
        let ilp = self.derived(
            "ilp.solve",
            parent,
            answer,
            at,
            stats.total_time.as_secs_f64(),
        );
        let mut at = self.start_of(ilp);
        for (name, d) in [
            ("ilp.presolve", stats.phase_times.presolve_s),
            ("ilp.warm_start", stats.phase_times.warm_start_s),
            ("ilp.nodes", stats.phase_times.nodes_s),
        ] {
            self.derived(name, ilp, answer, at, d);
            at += d;
        }
    }

    /// Start time of a recorded span (for laying derived children out).
    pub fn start_of(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| self.spans[i].start_s)
    }

    /// Self time of every span: its duration minus its children's. A
    /// derived child can outlast the room its parent has left (the
    /// reported duration was measured by a different clock); self time
    /// is then clamped at zero, and the excess shows as a negative
    /// remainder in [`Spans::breakdown`].
    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| (s.dur() - c).max(0.0))
            .collect()
    }

    /// The per-layer self-time breakdown of the interquartile answers
    /// (the answers whose latency lies between the 25th and 75th
    /// percentile, i.e. the ones around the median): mean self time per
    /// answer of every layer in `layers`, plus `remainder`, the part of
    /// the mean answer the layer self times do not cover. The root span
    /// of an answer is named `root`; its own self time is reported under
    /// that name.
    pub fn breakdown(&self, root: &str, layers: &[&'static str]) -> Breakdown {
        let selfs = self.self_times();
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name == root)
            .collect();
        let durs: Vec<f64> = roots.iter().map(|&i| self.spans[i].dur()).collect();
        let (lo, hi) = (quantile(&durs, 0.25), quantile(&durs, 0.75));
        let chosen: Vec<usize> = roots
            .iter()
            .copied()
            .filter(|&i| (lo..=hi).contains(&self.spans[i].dur()))
            .collect();
        let mut by_answer: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            by_answer.entry(s.answer).or_default().push(i);
        }
        let mut per_layer: Vec<(&'static str, f64)> = layers.iter().map(|&l| (l, 0.0)).collect();
        for &r in &chosen {
            for &i in &by_answer[&self.spans[r].answer] {
                if !self.descends_from(i, r) {
                    continue;
                }
                if let Some(slot) = per_layer.iter_mut().find(|(l, _)| *l == self.spans[i].name) {
                    slot.1 += selfs[i];
                }
            }
        }
        let n = chosen.len().max(1) as f64;
        for slot in &mut per_layer {
            slot.1 /= n;
        }
        let answer_s = mean(
            &chosen
                .iter()
                .map(|&i| self.spans[i].dur())
                .collect::<Vec<_>>(),
        );
        let covered: f64 = per_layer.iter().map(|(_, v)| v).sum();
        Breakdown {
            answers: chosen.len(),
            answer_s,
            per_layer,
            remainder_s: answer_s - covered,
        }
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Int(i as i64)),
                ("name", Json::Str(s.name.into())),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
                (
                    "parent",
                    s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                ),
                ("answer", Json::Int(s.answer as i64)),
                ("derived", Json::Bool(s.derived)),
            ]);
            writeln!(f, "{}", line.render())?;
        }
        f.flush()
    }
}

/// See [`Spans::breakdown`].
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub answers: usize,
    pub answer_s: f64,
    pub per_layer: Vec<(&'static str, f64)>,
    pub remainder_s: f64,
}
