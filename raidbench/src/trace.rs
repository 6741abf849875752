//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the harness around its calls into each layer;
//! they nest on one thread, carry the id of the replay they belong to
//! (`run_id`), and stay in memory until the trace file is written.
//! Per-group calls are far too many to record one by one, so the
//! replay loop folds them into its batch span as a [`Fold`]: a count,
//! the busy nanoseconds, and a log2 histogram for tail percentiles.

use crate::json::Json;
use std::time::Instant;

/// Log2 buckets: bucket `b` holds durations in `[2^b, 2^(b+1))` ns
/// (bucket 0 also holds 0 ns); 2^40 ns is over 18 minutes.
const BUCKETS: usize = 40;

/// Aggregate of many short calls of one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Fold {
    pub name: &'static str,
    pub count: u64,
    pub busy_ns: u64,
    pub hist: [u64; BUCKETS],
}

impl Fold {
    pub fn new(name: &'static str) -> Fold {
        Fold {
            name,
            count: 0,
            busy_ns: 0,
            hist: [0; BUCKETS],
        }
    }

    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        self.busy_ns += ns;
        let bucket = (63 - ns.max(1).leading_zeros()) as usize;
        self.hist[bucket.min(BUCKETS - 1)] += 1;
    }

    pub fn merge(&mut self, other: &Fold) {
        self.count += other.count;
        self.busy_ns += other.busy_ns;
        for (a, b) in self.hist.iter_mut().zip(other.hist) {
            *a += b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.count as f64
        }
    }

    /// The `q` quantile (0..1), interpolated linearly inside its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q * self.count as f64;
        let mut seen = 0.0;
        for (b, &n) in self.hist.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n as f64;
            if next >= target {
                let lo = if b == 0 { 0.0 } else { (1u64 << b) as f64 };
                let hi = (1u64 << (b + 1)) as f64;
                return lo + (hi - lo) * ((target - seen) / n as f64).clamp(0.0, 1.0);
            }
            seen = next;
        }
        (1u64 << BUCKETS) as f64
    }

    fn to_json(&self) -> Json {
        let last = self.hist.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        Json::obj()
            .with("name", self.name)
            .with("count", self.count)
            .with("busy_ns", self.busy_ns)
            .with(
                "log2_hist",
                self.hist[..last]
                    .iter()
                    .map(|&n| Json::from(n))
                    .collect::<Vec<_>>(),
            )
    }
}

/// Median cost (ns) of timing an empty interval — two `Instant::now`
/// calls. Folded per-call times include it once per call; the layer
/// metrics subtract it.
pub fn timer_overhead_ns() -> f64 {
    const CALLS: u32 = 10_000;
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let mut total = 0u64;
            for _ in 0..CALLS {
                let t0 = Instant::now();
                let t1 = Instant::now();
                total += (t1 - t0).as_nanos() as u64;
            }
            total as f64 / f64::from(CALLS)
        })
        .collect();
    crate::stats::median(&samples)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub folds: Vec<Fold>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    /// Spans opened from now on belong to replay `run_id`.
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run_id: self.run_id,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            folds: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Attaches folded per-call timings to span `id`.
    pub fn attach(&mut self, id: usize, folds: &[Fold]) {
        self.spans[id]
            .folds
            .extend(folds.iter().filter(|f| f.count > 0).cloned());
    }

    /// Duration of span `id` minus the part of its interval covered by
    /// its child spans, and minus the busy time of its folded calls
    /// (which ran inside it but have no interval of their own).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let folded: u64 = span.folds.iter().map(|f| f.busy_ns).sum();
        span.duration_ns().saturating_sub(covered + folded)
    }

    /// Durations (ns) of every span named `name`, or only of those of
    /// replay `run` when given.
    pub fn durations(&self, name: &str, run: Option<u32>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && run.is_none_or(|r| s.run_id == r))
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// All folds named `name` (of replay `run` only, when given),
    /// merged.
    pub fn fold(&self, name: &'static str, run: Option<u32>) -> Fold {
        let mut total = Fold::new(name);
        for f in self
            .spans
            .iter()
            .filter(|s| run.is_none_or(|r| s.run_id == r))
            .flat_map(|s| &s.folds)
            .filter(|f| f.name == name)
        {
            total.merge(f);
        }
        total
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", s.id)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
                    .with("run_id", u64::from(s.run_id))
                    .with("name", s.name)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", self.self_ns(s.id))
                    .with(
                        "folds",
                        s.folds.iter().map(Fold::to_json).collect::<Vec<_>>(),
                    )
            })
            .collect::<Vec<_>>();
        Json::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run_id: 0,
            name: "s",
            start_ns,
            end_ns,
            folds: Vec::new(),
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let t = tracer(vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 130),
            // Overlaps child 1: the union 110..140 is covered once.
            span(2, Some(0), 120, 140),
            // Sticks out past the parent's end: clipped to 190..200.
            span(3, Some(0), 190, 260),
            // A grandchild does not count against the root directly.
            span(4, Some(1), 111, 129),
        ]);
        assert_eq!(t.self_ns(0), 100 - 30 - 10);
        assert_eq!(t.self_ns(1), 20 - 18);
        assert_eq!(t.self_ns(4), 18);
    }

    #[test]
    fn self_time_subtracts_folded_calls() {
        let mut t = tracer(vec![span(0, None, 0, 1_000), span(1, Some(0), 0, 100)]);
        let mut f = Fold::new("engine.simulate_group");
        f.add(300);
        f.add(200);
        t.attach(0, &[f, Fold::new("empty")]);
        assert_eq!(t.spans[0].folds.len(), 1, "empty folds are dropped");
        assert_eq!(t.self_ns(0), 1_000 - 100 - 500);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut t = Tracer::new();
        t.set_run(3);
        let outer = t.enter("outer");
        let inner = t.span("inner", |t| t.spans.len() - 1);
        t.exit(outer);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert_eq!(t.spans[inner].run_id, 3);
        assert!(t.spans[outer].end_ns >= t.spans[inner].end_ns);
        assert!(t.self_ns(outer) <= t.spans[outer].duration_ns());
        let j = t.to_json();
        assert_eq!(j.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn fold_quantiles_come_from_the_histogram() {
        let mut f = Fold::new("x");
        for _ in 0..99 {
            f.add(100); // bucket 6: [64, 128)
        }
        f.add(5_000); // bucket 12: [4096, 8192)
        assert_eq!(f.count, 100);
        assert!((f.mean_ns() - (99.0 * 100.0 + 5_000.0) / 100.0).abs() < 1e-9);
        let p99 = f.quantile_ns(0.99);
        assert!((64.0..=128.0).contains(&p99), "{p99}");
        let max = f.quantile_ns(1.0);
        assert!((4096.0..=8192.0).contains(&max), "{max}");
        let mut g = Fold::new("x");
        g.merge(&f);
        assert_eq!(g, f);
    }
}
