//! Shared plumbing for the figure-harness binaries: table rendering, JSON
//! result persistence (under `results/`), an order-preserving parallel map
//! ([`par_map`]), the CI perf-regression gate over simbench digests
//! ([`gate`]), and the Chrome/Perfetto trace exporter ([`perfetto`]).

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

pub mod gate;
mod par;
pub mod perfetto;

pub use par::par_map;

/// Pretty-print a table with a header row.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Persist a machine-readable result file under `results/`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        if fs::write(&path, s).is_ok() {
            println!("[saved {}]", path.display());
        }
    }
}

/// Append one record to a JSON-Lines trajectory file under `results/`.
///
/// Unlike [`save_json`], the file is never overwritten: each full
/// benchmark run appends its rows, so the committed file accumulates the
/// repo's performance history (one line per bench per labelled run).
pub fn append_jsonl<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.jsonl"));
    if let Ok(s) = serde_json::to_string(value) {
        let line = format!("{s}\n");
        match fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        {
            Ok(()) => println!("[appended {}]", path.display()),
            Err(e) => eprintln!("[failed to append {}: {e}]", path.display()),
        }
    }
}

/// Geometric sweep of message sizes `lo..=hi` (powers of two).
pub fn pow2_sizes(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = lo;
    while s <= hi {
        v.push(s);
        s *= 2;
    }
    v
}

/// Iteration count that keeps total transferred bytes bounded.
pub fn iters_for(size: usize, target_bytes: usize, lo: usize, hi: usize) -> usize {
    (target_bytes / size.max(1)).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_powers_of_two() {
        assert_eq!(pow2_sizes(16, 128), vec![16, 32, 64, 128]);
    }

    #[test]
    fn iters_clamp() {
        assert_eq!(iters_for(1, 1000, 10, 100), 100);
        assert_eq!(iters_for(10_000, 1000, 10, 100), 10);
    }
}
