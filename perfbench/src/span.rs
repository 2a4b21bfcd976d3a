//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer's public API: name, start, end and the span that caused it.
//! Spans stay in memory while the workload runs and are written out
//! once it has finished, so the only cost inside the timed loop is two
//! clock reads and a `Vec` push per call. With tracing off the recorder
//! keeps nothing and reads no clock.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent of a span that nothing else caused.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the causing span in the recorder, or [`ROOT`].
    parent: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (or [`ROOT`] when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Summed duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Summed duration of the spans named `name` per unit of `count`.
    pub fn ns_per(&self, name: &str, count: u64) -> f64 {
        self.total_ns(name) as f64 / count as f64
    }

    /// Summed self time of every span named `name`: each span's duration
    /// minus the part its direct children cover (children never overlap,
    /// since the benchmark calls one layer at a time).
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// Share of the spans named `name` that their children cover: how
    /// much of a timed loop the layer calls account for.
    pub fn covered_share(&self, name: &str) -> f64 {
        let total = self.total_ns(name);
        1.0 - self.self_ns(name) as f64 / total as f64
    }

    /// Writes every span as one CSV line: `id,name,start_ns,end_ns,parent`
    /// (`parent` is empty for a root span).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::from("id,name,start_ns,end_ns,parent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(text, "{i},{},{},{},{parent}", s.name, s.start_ns, s.end_ns)
                .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
