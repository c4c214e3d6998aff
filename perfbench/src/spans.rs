//! Span recording for the traced run: the benchmark's own files wrap each
//! call into a layer's public functions in a span, keep every span in
//! memory, and write them out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};
use tsg_core::{ExtractStage, TraceSink};
use tsg_trace::Stage;

/// One timed interval. `id` is unique within the run; `parent` is the span
/// that caused it (`0` for a root). Times are offsets from the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call or stage name.
    pub name: &'static str,
    /// This span's id.
    pub id: u64,
    /// The enclosing span's id, `0` at the root.
    pub parent: u64,
    /// Start, from the epoch.
    pub start: Duration,
    /// End, from the epoch.
    pub end: Duration,
}

/// The in-memory span store of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A store whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, for a span whose interval is recorded later.
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    /// Runs `f` inside a span named `name` under `parent`; returns its
    /// result and how long it took.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.reserve_id();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, parent, start, end);
        (out, end - start)
    }

    /// Moves the spans a worker recorded with its own [`StageSink`] in.
    pub fn absorb(&mut self, sink: StageSink, parent: u64, call_start: Instant, call_end: Instant) {
        let id = self.reserve_id();
        self.record(
            "extract_series_features_traced",
            id,
            parent,
            call_start,
            call_end,
        );
        for (stage, start, end) in sink.intervals {
            let child = self.reserve_id();
            self.record(stage_name(stage), child, id, start, end);
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                s.parent,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// The runtime trace name of an extraction sub-stage (`tsg_trace::Stage`),
/// so a slow bench row and a slow server trace name the same layer.
fn stage_name(stage: ExtractStage) -> &'static str {
    match stage {
        ExtractStage::Scale => Stage::Scale,
        ExtractStage::GraphBuild => Stage::GraphBuild,
        ExtractStage::MotifCount => Stage::MotifCount,
        ExtractStage::Statistical => Stage::Statistical,
    }
    .as_str()
}

/// A [`TraceSink`] that timestamps every extraction sub-stage of one
/// series.
#[derive(Default)]
pub struct StageSink {
    open: Option<(ExtractStage, Instant)>,
    intervals: Vec<(ExtractStage, Instant, Instant)>,
}

impl StageSink {
    /// Total time spent in `stage`.
    pub fn total(&self, stage: ExtractStage) -> Duration {
        self.intervals
            .iter()
            .filter(|(s, _, _)| *s == stage)
            .map(|(_, start, end)| *end - *start)
            .sum()
    }
}

impl TraceSink for StageSink {
    fn enter(&mut self, stage: ExtractStage) {
        self.open = Some((stage, Instant::now()));
    }

    fn exit(&mut self, stage: ExtractStage) {
        let end = Instant::now();
        if let Some((open, start)) = self.open.take() {
            debug_assert_eq!(open, stage, "extraction stages never nest");
            self.intervals.push((stage, start, end));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_the_runtime_trace_names() {
        assert_eq!(stage_name(ExtractStage::Scale), "scale");
        assert_eq!(stage_name(ExtractStage::GraphBuild), "graph_build");
        assert_eq!(stage_name(ExtractStage::MotifCount), "motif_count");
        assert_eq!(stage_name(ExtractStage::Statistical), "statistical");
    }

    #[test]
    fn absorbed_stages_are_children_of_their_call() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let mut sink = StageSink::default();
        sink.enter(ExtractStage::Scale);
        sink.exit(ExtractStage::Scale);
        sink.enter(ExtractStage::MotifCount);
        sink.exit(ExtractStage::MotifCount);
        tracer.absorb(sink, 0, epoch, Instant::now());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert!(spans[1..].iter().all(|s| s.parent == spans[0].id));
        assert_eq!(spans[2].name, "motif_count");
    }
}
