//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (no span lives inside the program), kept in memory, and written out
//! once when the run ends. A span's self time is its duration minus the
//! part of its interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Single-threaded span stack: `enter` opens a child of the innermost
/// open span, `exit` closes it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of one closed span, in ns.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Summed self time of every span named `name`, in ns: each span's
    /// duration minus its children's durations, clipped to its interval.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(covered[i]))
            .sum()
    }

    /// Writes every span as one JSON line per span, then a per-name
    /// summary line (count, total ns, self ns).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                self.count(name),
                self.total_ns(name),
                self.self_ns(name)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.enter("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let child = t.total_ns("child");
        assert!(child >= 2_000_000);
        assert_eq!(t.self_ns("root"), t.total_ns("root") - child);
        assert_eq!(t.self_ns("child"), child);
    }
}
