//! In-memory spans recorded around each layer call of the traced run.
//!
//! A span is a named interval with an optional parent. Spans are only
//! collected while tracing is enabled; they stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// One root span's breakdown: its wall time and the self time of each
/// child layer, in seconds.
pub struct Breakdown {
    /// Duration of the root span.
    pub wall_s: f64,
    /// Self time per child span name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    /// Share of the root's wall time that its child layers cover.
    pub fn coverage(&self) -> f64 {
        self.layers.values().sum::<f64>() / self.wall_s
    }
}

/// The span recorder.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a root span and its child spans, given their start and end
    /// instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        children: &[(&'static str, Instant, Instant)],
    ) {
        if !self.enabled {
            return;
        }
        let root = self.spans.len();
        self.spans.push(Span {
            name,
            parent: None,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        for &(child, a, b) in children {
            self.spans.push(Span {
                name: child,
                parent: Some(root),
                start_ns: self.ns(a),
                end_ns: self.ns(b),
            });
        }
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// its (sequential, non-overlapping) children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The breakdown of every root span named `root`, in recording order.
    pub fn breakdowns(&self, root: &str) -> Vec<Breakdown> {
        let own = self.self_ns();
        let mut out: Vec<(usize, Breakdown)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                let wall_s = (s.end_ns - s.start_ns) as f64 * 1e-9;
                out.push((
                    i,
                    Breakdown {
                        wall_s,
                        layers: BTreeMap::new(),
                    },
                ));
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            if let Ok(k) = out.binary_search_by_key(&p, |(r, _)| *r) {
                *out[k].1.layers.entry(s.name).or_insert(0.0) += own[i] as f64 * 1e-9;
            }
        }
        out.into_iter().map(|(_, b)| b).collect()
    }

    /// Writes every span as a tab-separated line: id, parent id (`-` for a
    /// root), name, start and end in nanoseconds since the run began, and
    /// self time in nanoseconds.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, own[i]
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_coverage_sums_them() {
        let mut trace = Trace::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        trace.record(
            "attack",
            at(0),
            at(100),
            &[("fit", at(0), at(30)), ("score", at(40), at(90))],
        );
        trace.set_enabled(false);
        trace.record("attack", at(100), at(200), &[("fit", at(100), at(200))]);
        let b = trace.breakdowns("attack");
        assert_eq!(b.len(), 1, "disabled recording adds nothing");
        assert!((b[0].wall_s - 0.1).abs() < 1e-12);
        assert!((b[0].layers["fit"] - 0.03).abs() < 1e-12);
        assert!((b[0].layers["score"] - 0.05).abs() < 1e-12);
        assert!((b[0].coverage() - 0.8).abs() < 1e-9);
        assert!(trace.breakdowns("request").is_empty());
    }
}
