//! Order statistics, process counters read from `/proc/self`, and the
//! result-line JSON writer.

use std::fmt::Write as _;

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated between
/// the two nearest ranks. `values` need not be sorted; empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One numeric field of `/proc/self/status`, in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU time of this process (all threads) in milliseconds,
/// from `/proc/self/stat` fields 14 and 15. Linux reports them in ticks of
/// 1/100 s on every configuration the toolchain image supports.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Metric names and units are the static identifiers of `layers.rs`:
        // letters, digits, '_', '.', '/', '%' — nothing JSON must escape.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_of_three_ignores_one_outlier() {
        assert_eq!(median(&[0.81, 5.0, 0.79]), 0.81);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(10, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(1, 1, &[]).starts_with("{\"correct\": false"));
    }
}
