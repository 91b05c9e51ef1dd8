//! The traced run's span recorder. Spans are recorded from the benchmark's
//! own files, around the calls into each layer; they stay in memory and are
//! written out once, when the run ends. A layer's number is the median
//! *self* time of its spans: duration minus the time its direct children
//! cover.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;
/// Handle of a span opened while the tracer was muted.
const MUTED: u32 = u32::MAX - 1;

pub struct Span {
    pub name: &'static str,
    /// Which replayed slice or probe recorded the span (`"hot_read"`, ...).
    pub group: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Logical op the span belongs to; spans of one op share it.
    pub op: u32,
    /// Calls the span covers (batched probes time many calls at once).
    pub calls: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    group: &'static str,
    op: u32,
    recording: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
            group: "",
            op: 0,
            recording: true,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new logical op in `group`; later spans carry its id.
    pub fn begin_op(&mut self, group: &'static str) {
        self.group = group;
        self.op += 1;
    }

    /// Stops or resumes recording; muted, the same code paths run and leave
    /// no spans (the replay warms caches this way before it is timed).
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "no span may be open across a mute");
        self.recording = on;
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.recording {
            return MUTED;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            group: self.group,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        if id == MUTED {
            return;
        }
        let end_ns = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Closes `id` as one span covering `calls` calls.
    pub fn close_batch(&mut self, id: u32, calls: u32) {
        self.close(id);
        if id != MUTED {
            self.spans[id as usize].calls = calls.max(1);
        }
    }

    /// Runs `f` inside a span that has no children.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span: duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-call self times of spans named `name`, optionally of one group.
    pub fn self_times(&self, name: &str, group: Option<&str>) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && (group.is_none() || group == Some(s.group)))
            .map(|(s, own)| own as f64 / s.calls as f64)
            .collect()
    }

    /// Whole durations (children included) of spans named `name` in `group`.
    pub fn durations(&self, name: &str, group: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.group == group)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median per-call self time of `name` in ns: over `group`'s spans when
    /// it has any, else over every group's. 0 when the span never ran.
    pub fn median_self_ns(&self, name: &str, group: &str) -> f64 {
        let own = self.self_times(name, Some(group));
        if own.is_empty() {
            median(self.self_times(name, None))
        } else {
            median(own)
        }
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"group\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"calls\":{}}}",
                s.name, s.group, s.op, s.start_ns, s.end_ns, s.calls
            )?;
        }
        w.flush()
    }

    /// Whole durations of the spans in `group` that directly contain a span
    /// named `child`.
    pub fn parents_of(&self, child: &str, group: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == child && s.group == group && s.parent != NO_PARENT)
            .map(|s| {
                let p = &self.spans[s.parent as usize];
                (p.end_ns - p.start_ns) as f64
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Median of `values` (0 for none). Sorts in place.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of an ascending slice (0 for none).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        t.begin_op("g");
        let root = t.open("root");
        let child = t.open("child");
        let grandchild = t.open("leaf");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(grandchild);
        t.close(child);
        t.close(root);
        let dur = |n: &str| t.durations(n, "g")[0];
        let own = |n: &str| t.self_times(n, None)[0];
        assert!(own("leaf") >= 2e6);
        assert_eq!(own("child"), dur("child") - dur("leaf"));
        assert_eq!(own("root"), dur("root") - dur("child"));
        assert!(own("root") < 1e6, "root did nothing itself");
    }

    #[test]
    fn median_prefers_the_own_group_and_batches_divide() {
        let mut t = Tracer::new();
        t.begin_op("a");
        let id = t.open("x");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.close_batch(id, 10);
        assert!(t.median_self_ns("x", "a") >= 1e5);
        assert_eq!(t.median_self_ns("x", "b"), t.median_self_ns("x", "a"));
        assert_eq!(t.median_self_ns("never", "a"), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }
}
