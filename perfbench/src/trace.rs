//! In-memory span recorder for the traced run.
//!
//! A span is one call into a public function of a layer: its name, start
//! and end (nanoseconds since the run's epoch), the span that caused it,
//! and the key of the request it belongs to (a tree index or a query
//! number). Spans stay in memory and are written out as JSON lines when
//! the run ends. Each thread owns its recorder, so recording never
//! contends; ids carry the thread in their high bits and stay unique
//! across recorders.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Disabled recorders hand out ids but keep
/// nothing, so the untraced run pays for no span at all.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    thread: u64,
    next: u64,
    cap: usize,
    spans: Vec<Span>,
    /// Spans recorded after the buffer reached `cap`: counted, not kept.
    dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32, enabled: bool, cap: usize) -> Tracer {
        Tracer {
            epoch,
            enabled,
            thread: u64::from(thread) << 40,
            next: 0,
            cap,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Reserves the id of a span whose children are recorded before it
    /// ends.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.thread | self.next
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a span with a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.reserve();
            self.record_as(id, name, parent, key, start, end);
        }
    }

    /// `true` once later spans would be counted, not kept.
    pub fn is_full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    pub fn into_parts(self) -> (Vec<Span>, u64) {
        (self.spans, self.dropped)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Writes spans as JSON lines, ordered by start time.
pub fn write_jsonl(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
        ];
        let st = self_times(&spans);
        // Children cover [10, 50) and [90, 100) of the parent.
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20);
    }
}
