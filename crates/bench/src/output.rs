//! Small statistics and output helpers for the experiment binaries.

use std::path::PathBuf;

use serde::Serialize;

/// The directory experiment outputs are written to (`results/` at the
/// workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Walks up from the crate's manifest to the workspace root.
pub(crate) fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

/// Opt-in telemetry sink for experiment binaries: when the `EF_TELEMETRY`
/// environment variable names a file, every telemetry record streams there
/// as JSON lines; otherwise telemetry stays disabled. The sink is pure
/// I/O — attaching it never changes what lands in the byte-compared
/// `results/` files (the CI determinism job runs with it enabled).
pub fn telemetry_from_env() -> ef_telemetry::TelemetryHandle {
    match std::env::var("EF_TELEMETRY") {
        Ok(path) if !path.is_empty() => match ef_telemetry::TelemetryHandle::to_file(&path) {
            Ok(handle) => {
                eprintln!("[telemetry] streaming records to {path}");
                handle
            }
            Err(e) => {
                eprintln!("[telemetry] cannot open {path}: {e}; telemetry disabled");
                ef_telemetry::TelemetryHandle::disabled()
            }
        },
        _ => ef_telemetry::TelemetryHandle::disabled(),
    }
}

/// Serializes `value` as pretty JSON into `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize");
    std::fs::write(&path, json).expect("write results file");
    println!("[wrote {}]", path.display());
}

/// Empirical CDF: returns `(value, fraction ≤ value)` at `n` evenly spaced
/// ranks (plus the max). Input need not be sorted.
pub fn cdf_points(values: &[f64], n: usize) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let len = v.len();
    let mut out = Vec::with_capacity(n + 1);
    for i in 0..n {
        let rank = (i * (len - 1)) / n.max(1);
        out.push((v[rank], (rank + 1) as f64 / len as f64));
    }
    out.push((v[len - 1], 1.0));
    out.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    out
}

/// The `p`-th percentile (0–100) of `values`: the sorted element at index
/// `round(p / 100 · (n − 1))`, without interpolation. This is not
/// nearest-rank: P50 of `1..=100` is 51 here, 50 under nearest-rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone() {
        let values = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let cdf = cdf_points(&values, 4);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_empty_is_empty() {
        assert!(cdf_points(&[], 10).is_empty());
    }

    #[test]
    fn percentiles() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 50.0), 51.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
