//! Small measurement helpers: quantiles, fingerprints, peak memory, and
//! the in-memory span log of the traced runs.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile `q` of `values` (sorted internally). Empty
/// input yields NaN, which the report refuses to print.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// 64-bit FNV-1a over `bytes`: the tree fingerprint the checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process when
/// `None`, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("{path}: malformed VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}

/// One recorded span: a call the benchmark made into a layer.
struct Span {
    name: &'static str,
    /// The operation (file or request) the span belongs to.
    op: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// The traced run's span log. Spans stay in memory while the run
/// measures and are written out once, at the end.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Records one finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { name, op, parent, start, end });
        self.spans.len() - 1
    }

    /// Writes the log as JSONL: one span per line, times in
    /// nanoseconds since the run began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start.saturating_duration_since(self.epoch).as_nanos(),
                s.end.saturating_duration_since(self.epoch).as_nanos()
            )?;
        }
        out.flush()
    }
}
