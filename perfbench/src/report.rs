//! Results, statistics and the JSON the command prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs, lost tickets, broken service invariants and
    /// non-deterministic counts. Any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Measured metrics by name; `main` prints them in the order and with
    /// the units of its metric tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra facts printed before the result line (sample counts, per-seed
    /// simulated counts), as `(key, JSON value)`.
    pub info: Vec<(String, String)>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Fold another phase's attempt accounting and errors into this run.
    pub fn absorb(&mut self, other: RunResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding `table`'s metrics in its order.
    pub fn result_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn info_json(&self) -> String {
        object(&self.info)
    }
}

/// A JSON object from `(key, JSON value)` pairs.
pub fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}: {}", json_str(key), value))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (non-finite values print as 0 and
/// are reported as errors by the caller's checks).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `index`-th input of a seed's stream: an instance seed (simulator
/// workloads) or a key (service workload). `splitmix64` is a bijection, so
/// distinct indices give distinct inputs.
pub fn input(seed: u64, index: u64) -> u64 {
    fle_model::splitmix64(fle_model::splitmix64(seed).wrapping_add(index))
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time this process has used so far, in seconds (`utime + stime`).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of those, in clock ticks of 1/100 s.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// On-CPU time of the calling thread so far, in ns (the first field of
/// `/proc/thread-self/schedstat`). The kernel's task clock leaves out time
/// stolen by the hypervisor when it accounts for steal, as Linux guests
/// with paravirtual time accounting do.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time the hypervisor has given to other guests while this host's
/// CPUs wanted to run, summed over all CPUs, in seconds (`steal` of
/// `/proc/stat`).
pub fn host_steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The checkout root: the parent of this package's directory.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives in a directory of the checkout")
        .to_path_buf()
}

/// Where runs leave their span files and the simulated-count ledger.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// FNV-1a digest of the sources the measured program is built from, so
/// results from a checkout without git history still name the code.
pub fn source_digest() -> String {
    let root = checkout_root();
    let mut files = Vec::new();
    for dir in ["crates", "shims", "src", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for byte in name.bytes().chain([0]).chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            collect_files(&path, out);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            out.push(path);
        }
    }
}

/// The commit of the checkout, when it is a git work tree.
pub fn commit() -> Option<String> {
    let root = checkout_root();
    if !root.join(".git").exists() {
        return None;
    }
    let output = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    (output.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// Sub-buckets per power of two: a value is kept to within 1/128 of itself.
const SUB_BITS: u32 = 7;
const SUBS: usize = 1 << SUB_BITS;

/// Weighted counts of values (latencies in ns) in log-linear buckets. Every
/// recorded value is counted, and the memory is fixed when the histogram is
/// made, so the benchmark's own memory does not grow while it measures.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    pub total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; SUBS * (65 - SUB_BITS as usize)],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(value: u64) -> usize {
        if value < SUBS as u64 {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        SUBS * (shift as usize + 1) + (value >> shift) as usize - SUBS
    }

    /// The lowest value that lands in bucket `index`, and the bucket's width.
    fn bounds(index: usize) -> (f64, f64) {
        if index < SUBS {
            return (index as f64, 1.0);
        }
        let shift = index / SUBS - 1;
        let low = ((SUBS + index % SUBS) as u64) << shift;
        (low as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, value: u64, weight: u64) {
        self.counts[Self::index(value)] += weight;
        self.total += weight;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (count, more) in self.counts.iter_mut().zip(&other.counts) {
            *count += more;
        }
        self.total += other.total;
    }

    /// The `q`-quantile: the value at which the cumulative weight reaches
    /// `q` of the total, interpolated within its bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let target = (q * self.total as f64).max(1.0);
        let mut seen = 0.0;
        for (index, &count) in self.counts.iter().enumerate() {
            let count = count as f64;
            if count > 0.0 && seen + count >= target {
                let (low, width) = Self::bounds(index);
                return low + width * (target - seen) / count;
            }
            seen += count;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::Histogram;

    #[test]
    fn buckets_keep_values_to_within_one_part_in_128() {
        for value in (0..20_000u64).chain([1 << 20, 123_456_789, u64::MAX]) {
            let (low, width) = Histogram::bounds(Histogram::index(value));
            assert!(
                low <= value as f64 && value as f64 <= low + width,
                "{value}"
            );
            assert!(width <= (value as f64 / 128.0).max(1.0), "{value}");
        }
    }

    #[test]
    fn quantiles_follow_the_weights() {
        let mut hist = Histogram::default();
        hist.record(10, 98);
        hist.record(1000, 1);
        hist.record(5000, 1);
        assert_eq!(hist.quantile(0.49), 10.5);
        assert_eq!(hist.quantile(0.99), 1004.0);
        assert_eq!(hist.quantile(1.0), 5024.0);
    }
}
