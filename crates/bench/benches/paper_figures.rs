//! Custom-harness bench target that regenerates every table and figure of
//! the paper. Runs under `cargo bench` (printing all series) or directly:
//!
//! ```text
//! cargo bench --bench paper_figures -- 12a          # one figure
//! cargo bench --bench paper_figures -- all          # everything
//! ```

use xarch_bench::figures::{run, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // cargo bench passes --bench; ignore flags
    let figs: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with('-'))
        .collect();
    let scale = Scale::default();
    println!(
        "# xarch paper-figure reproduction (OMIM {}x{}, SwissProt {}x{}, XMark {}x{})",
        scale.omim_records,
        scale.omim_versions,
        scale.sp_records,
        scale.sp_versions,
        scale.xmark_items,
        scale.xmark_versions
    );
    println!();
    if figs.is_empty() {
        run("all", &scale);
    } else {
        for f in figs {
            if !run(f, &scale) {
                eprintln!("unknown figure id `{f}`; try 7, 11a, 11b, 12a, 12b, 13, 14, c1, c2, claims, extmem, index, queries, ablation, durability, concurrency, all");
                std::process::exit(2);
            }
        }
    }
}
