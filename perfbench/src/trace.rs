//! In-memory span bookkeeping for the traced replay.
//!
//! A span is a named interval with a parent, tagged with the block height
//! and transaction index it worked on. Spans are only recorded while the
//! tracer is on; off, `begin`/`end` cost a branch, which is what the
//! untimed replay that `trace.overhead` compares against pays.

use std::io::Write;
use std::time::Instant;

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub block: u64,
    pub tx: u32,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span (or of nothing, when tracing is off).
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, block: u64, tx: Option<usize>) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            block,
            tx: tx.map_or(NONE, |t| t as u32),
        });
        self.stack.push(id);
        // Stamp last, so the bookkeeping above is not inside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = end;
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        block: u64,
        tx: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, block, tx);
        let r = f();
        self.end(open);
        r
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NONE {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Write every span as one tab-separated line:
    /// `name start_ns end_ns self_ns parent block tx` (`-` for none).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tself_ns\tparent\tblock\ttx")?;
        let opt = |v: u32| {
            if v == NONE {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for (s, own) in self.spans.iter().zip(own) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                own,
                opt(s.parent),
                s.block,
                opt(s.tx)
            )?;
        }
        out.flush()
    }
}
