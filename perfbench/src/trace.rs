//! In-memory span recorder for the traced runs.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into the public API of the measured crates; nothing inside those
//! crates is instrumented. Each span keeps its name, start and end on a
//! monotonic clock, the span that caused it, the step and instance it
//! belongs to, and the cache counters observed across it. A span's self
//! time is its duration minus the part its child spans cover (children
//! never overlap: the recorder runs on one thread).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent, and a span without a step or instance.
pub const NONE: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub step: u32,
    pub instance: u32,
    /// Cache hits observed across the span (evaluation spans only).
    pub hits: u64,
    /// Cache misses, i.e. mapping searches, across the span.
    pub misses: u64,
    /// Layers of the network the span evaluated.
    pub layers: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    instance: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            instance: NONE,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the instance id stamped on spans opened from now on.
    pub fn set_instance(&mut self, instance: u32) {
        self.instance = instance;
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn enter(&mut self, name: &'static str, step: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            step,
            instance: self.instance,
            hits: 0,
            misses: 0,
            layers: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in reverse order of opening");
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, step: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, step);
        let out = f();
        self.exit(id);
        out
    }

    /// The span behind a handle, for renaming it or attaching counters.
    pub fn get_mut(&mut self, id: u32) -> &mut Span {
        &mut self.spans[id as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if span.parent != NONE {
                own[span.parent as usize] -= span.duration_s();
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_s\":{:e}",
                s.name, s.start_ns, s.end_ns, own[i]
            );
            for (key, value) in [
                ("parent", s.parent),
                ("step", s.step),
                ("instance", s.instance),
            ] {
                if value != NONE {
                    let _ = write!(out, ",\"{key}\":{value}");
                }
            }
            if s.layers > 0 {
                let _ = write!(
                    out,
                    ",\"layers\":{},\"hits\":{},\"misses\":{}",
                    s.layers, s.hits, s.misses
                );
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only() {
        let mut t = Tracer::new();
        let root = t.enter("root", NONE);
        let child = t.enter("child", 0);
        let grandchild = t.enter("grandchild", 0);
        t.exit(grandchild);
        t.exit(child);
        t.exit(root);
        // Pin the clock readings so the arithmetic is exact.
        for (i, (start, end)) in [(0, 100), (10, 60), (20, 30)].into_iter().enumerate() {
            t.spans[i].start_ns = start;
            t.spans[i].end_ns = end;
        }
        let own = t.self_times();
        assert!((own[0] - 50e-9).abs() < 1e-15);
        assert!((own[1] - 40e-9).abs() < 1e-15);
        assert!((own[2] - 10e-9).abs() < 1e-15);
        assert_eq!(t.spans()[2].parent, child);
    }
}
