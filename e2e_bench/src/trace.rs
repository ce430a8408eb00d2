//! Span recording for the traced run: one span per public call the
//! benchmark makes, kept in a preallocated buffer and written out when the
//! run ends.

use std::io::Write;
use std::time::Instant;

/// The calls a span can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One simulation step (or one served request); parent of the rest.
    Step,
    /// The host call: the solver's `step()`, or the in-process
    /// `Session::step` the served path is compared with.
    Host,
    /// `Engine::step(..).complete` (proxies) or the `Client::step` round
    /// trip (service).
    Analysis,
    /// Shadow `Collector::sample`.
    Sample,
    /// Shadow `Collector::assemble`.
    Assemble,
    /// Shadow `IncrementalTrainer::train_batch`.
    Train,
    /// Shadow extractor call.
    Extract,
    /// `Engine::drain` + `Engine::extract_now`, or `Session::extract`.
    Finish,
    /// `Frame::encode` of the step's request and reply.
    Encode,
    /// `Frame::decode` of the step's request and reply.
    Decode,
}

impl Name {
    /// Number of span names.
    pub const COUNT: usize = 10;

    fn label(self) -> &'static str {
        match self {
            Name::Step => "step",
            Name::Host => "host",
            Name::Analysis => "analysis",
            Name::Sample => "collect.sample",
            Name::Assemble => "collect.assemble",
            Name::Train => "model.train",
            Name::Extract => "extract",
            Name::Finish => "engine.finish",
            Name::Encode => "wire.encode",
            Name::Decode => "wire.decode",
        }
    }
}

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: Name,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The step (or request) the span belongs to.
    pub step: u32,
}

impl Span {
    /// Wall-clock length of the call.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// A fixed-capacity span buffer. Recording never allocates; spans beyond
/// the capacity are counted and dropped.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// A recorder holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished call and returns its index.
    pub fn push(
        &mut self,
        name: Name,
        start: Instant,
        end: Instant,
        parent: u32,
        step: u32,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            step,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is set later by [`Spans::close`].
    pub fn open(&mut self, name: Name, start: Instant, step: u32) -> u32 {
        self.push(name, start, start, ROOT, step)
    }

    /// Sets the end of a span opened with [`Spans::open`].
    pub fn close(&mut self, index: u32, end: Instant) {
        let end_ns = self.offset(end);
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover. Children of one parent never overlap here (the
    /// benchmark makes its calls one after another), so the covered part
    /// is the sum of the children's durations clipped to the parent.
    pub fn self_times_ns(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = self.spans.get(span.parent as usize) {
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                covered[span.parent as usize] += end.saturating_sub(start) as f64;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| span.duration_ns() - covered)
            .collect()
    }

    /// Writes the spans as tab-separated lines
    /// (`index name start_ns end_ns parent step self_ns`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tstep\tself_ns")?;
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = if span.parent == ROOT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{parent}\t{}\t{self_ns}",
                span.name.label(),
                span.start_ns,
                span.end_ns,
                span.step
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut spans = Spans::with_capacity(8);
        let t = spans.origin;
        let at = |us: u64| t + Duration::from_micros(us);
        let step = spans.open(Name::Step, at(0), 0);
        spans.push(Name::Host, at(1), at(5), step, 0);
        spans.push(Name::Analysis, at(5), at(7), step, 0);
        spans.close(step, at(10));
        let selfs = spans.self_times_ns();
        assert_eq!(selfs, vec![4_000.0, 4_000.0, 2_000.0]);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut spans = Spans::with_capacity(1);
        let now = Instant::now();
        spans.push(Name::Host, now, now, ROOT, 0);
        assert_eq!(spans.push(Name::Host, now, now, ROOT, 1), ROOT);
        assert_eq!(spans.spans().len(), 1);
        assert_eq!(spans.dropped(), 1);
    }
}
