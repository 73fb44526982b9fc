//! Regenerates the canonical experiment suite (F1–F8, T1–T5, T7).
//!
//! Usage: `experiments [ids…]` — no arguments runs everything. Tables go
//! to stdout and to `results/<id>.csv`.

use std::path::PathBuf;
use std::time::Instant;

use qosc_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() {
        experiments::ALL.iter().map(|s| s.to_string()).collect()
    } else {
        args.iter().map(|s| s.to_lowercase()).collect()
    };
    let out_dir = PathBuf::from("results");
    let mut failures = 0;
    for id in &ids {
        let started = Instant::now();
        match experiments::run(id) {
            Some(table) => {
                table.print();
                if let Err(e) = table.write_csv(&out_dir, id) {
                    eprintln!("warning: could not write results/{id}.csv: {e}");
                }
                println!("[{}] done in {:.1}s", id, started.elapsed().as_secs_f64());
            }
            None => {
                eprintln!(
                    "unknown experiment `{id}` (known: {})",
                    experiments::ALL.join(", ")
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
