//! Reads the spans the program already records (`lab.*`, `farm.*`,
//! `stage.*`, `serve.*`, `profile.validate`) together with the benchmark's
//! own `bench.*` spans, and splits the measured phase's main-thread time
//! into layers.

use crate::Metrics;
use pibe_trace::{SpanRecord, TraceData};

/// Spans collected during a traced run. Events, counters and histograms are
/// dropped at every [`SpanLog::drain`]: per-decision pass events would
/// otherwise grow without bound over hundreds of builds.
#[derive(Debug, Default)]
pub struct SpanLog {
    tracks: Vec<String>,
    spans: Vec<SpanRecord>,
}

impl SpanLog {
    /// Moves every span recorded so far into the log; a no-op when tracing
    /// is off.
    pub fn drain(&mut self) {
        if !pibe_trace::enabled() {
            return;
        }
        let data = pibe_trace::take();
        self.tracks = data.tracks;
        self.spans.extend(data.spans);
    }

    /// The collected spans as trace data (for the Chrome trace file).
    pub fn data(&self) -> TraceData {
        TraceData {
            tracks: self.tracks.clone(),
            spans: self.spans.clone(),
            ..TraceData::default()
        }
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect()
    }

    /// Splits the main-thread time inside `bench.measure` spans into
    /// layers. Where spans nest, time goes to the first matching layer in
    /// this order, so the shares add up to 100 %:
    ///
    /// * `build`: inside an image build (`farm.images`, `farm.build`,
    ///   `pipeline.build`, or `serve.rebuild`, whose build runs on the
    ///   watchdog thread while the main thread waits);
    /// * `serve_validate`: delta validation (`profile.validate`);
    /// * `eval`: the rest of a table (`bench.table`): simulation and
    ///   formatting;
    /// * `serve_merge`: the rest of an epoch (`serve.epoch`): merge, the
    ///   decision-surface diff and bookkeeping;
    /// * `generator`: the benchmark's own input generation (`bench.generate`);
    /// * `check`: the benchmark's output checks and bookkeeping
    ///   (`bench.check`);
    /// * `unattributed`: everything else.
    pub fn wall_breakdown(&self) -> Metrics {
        const LAYERS: [(&str, &[&str]); 6] = [
            (
                "build",
                &[
                    "farm.images",
                    "farm.build",
                    "pipeline.build",
                    "serve.rebuild",
                ],
            ),
            ("serve_validate", &["profile.validate"]),
            ("eval", &["bench.table"]),
            ("serve_merge", &["serve.epoch"]),
            ("generator", &["bench.generate"]),
            ("check", &["bench.check"]),
        ];
        let main = self
            .spans
            .iter()
            .find(|s| s.name == "bench.measure")
            .map(|s| s.track);
        // (time, delta, layer); the window is layer LAYERS.len().
        let mut edges: Vec<(u64, i32, usize)> = Vec::new();
        for s in self.spans.iter().filter(|s| Some(s.track) == main) {
            let layer = if s.name == "bench.measure" {
                Some(LAYERS.len())
            } else {
                LAYERS
                    .iter()
                    .position(|(_, names)| names.contains(&&*s.name))
            };
            if let Some(layer) = layer {
                edges.push((s.start_ns, 1, layer));
                edges.push((s.start_ns + s.dur_ns, -1, layer));
            }
        }
        edges.sort_unstable();
        let mut open = [0i32; LAYERS.len() + 1];
        let mut ns = [0u64; LAYERS.len() + 1];
        let mut window_ns = 0u64;
        let mut last = 0u64;
        for (t, delta, layer) in edges {
            if open[LAYERS.len()] > 0 {
                let span = t - last;
                window_ns += span;
                if let Some(l) = (0..LAYERS.len()).find(|&l| open[l] > 0) {
                    ns[l] += span;
                } else {
                    ns[LAYERS.len()] += span;
                }
            }
            open[layer] += delta;
            last = t;
        }
        let pct = |n: u64| {
            if window_ns == 0 {
                0.0
            } else {
                n as f64 * 100.0 / window_ns as f64
            }
        };
        let mut out: Metrics = LAYERS
            .iter()
            .zip(ns)
            .map(|((name, _), n)| (format!("wall.{name}_pct"), pct(n), "%"))
            .collect();
        out.push(("wall.unattributed_pct".into(), pct(ns[LAYERS.len()]), "%"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            track: 0,
            id: 0,
            parent: 0,
            depth: 0,
            name: name.into(),
            start_ns: start,
            dur_ns: end - start,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_are_counted_once_and_shares_add_up() {
        let log = SpanLog {
            tracks: vec!["main".into()],
            spans: vec![
                span("bench.measure", 0, 100),
                span("bench.table", 10, 60),
                span("farm.images", 20, 40),
                span("farm.build", 25, 35),
                span("bench.generate", 70, 80),
                // Outside the window: ignored.
                span("bench.table", 100, 200),
            ],
        };
        let shares: Vec<(String, f64)> = log
            .wall_breakdown()
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        let get = |name: &str| shares.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("wall.build_pct"), 20.0);
        assert_eq!(get("wall.eval_pct"), 30.0);
        assert_eq!(get("wall.generator_pct"), 10.0);
        assert_eq!(get("wall.unattributed_pct"), 40.0);
        assert_eq!(shares.iter().map(|(_, v)| v).sum::<f64>(), 100.0);
    }
}
