//! Spans recorded by the benchmark around the calls it makes into each
//! layer, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// One timed call. `parent` is the span that caused it; spans of one
/// request share `request` (the task's index in the measured list). Times
/// are raw nanoseconds since the run's epoch, not calibrated.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its id, for children to name.
    pub fn add(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        request: usize,
        start: Duration,
        took: Duration,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = start.as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
        });
        id
    }

    /// Writes `out/trace-<workload>.json` and returns its path.
    pub fn write(&self, workload: &str, seed: u64) -> Result<PathBuf, String> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        let _ = write!(text, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{}\n{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        text.push_str("\n]}\n");
        let path = out_dir()?.join(format!("trace-{workload}.json"));
        let mut file =
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// `benchmark/out/`, created on first use: next to the manifest cargo ran
/// (or was built from), so it lands inside the checkout whatever the
/// working directory is.
pub fn out_dir() -> Result<PathBuf, String> {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = PathBuf::from(manifest_dir).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_span_names_its_parent_and_ids_are_positions() {
        let mut t = Trace::default();
        let ms = Duration::from_millis;
        let root = t.add(None, "server.plan", 7, ms(10), ms(5));
        let child = t.add(Some(root), "server.service", 7, ms(11), ms(3));
        assert_eq!((root, child), (0, 1));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!((t.spans[0].start_ns, t.spans[0].end_ns), (10_000_000, 15_000_000));
        assert!(t.spans.iter().all(|s| s.parent.is_none_or(|p| p < s.id)));
    }
}
