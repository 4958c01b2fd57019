//! Regenerates every table and figure of the RACOD paper's evaluation.
//!
//! ```text
//! cargo run --release -p racod-bench --bin figures -- all
//! cargo run --release -p racod-bench --bin figures -- fig3 fig8 --full
//! ```
//!
//! Without `--full`, the quick scale is used (smaller maps, fewer pairs).

use racod::experiments as exp;
use std::time::Instant;

const USAGE: &str = "\
figures — regenerate the tables and figures of the RACOD paper's evaluation

usage: figures [all | table2 fig3 fig4 ... fig13 ablations] [--full]

  --full  paper-approaching workloads (default: quick scale, seconds)

example:
  cargo run --release -p racod-bench --bin figures -- fig3 fig8";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let scale = racod_bench::scale_from_args(args.iter().cloned());
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let all = selected.is_empty() || selected.contains(&"all");
    let want = |name: &str| all || selected.contains(&name);

    println!("RACOD figure harness — scale: {scale:?}\n");
    let t0 = Instant::now();

    if want("table2") {
        section("table2", exp::table2);
    }
    if want("fig3") {
        section("fig3", || exp::fig3(scale).to_string());
    }
    if want("fig4") {
        section("fig4", || {
            let data = exp::fig4(scale);
            if std::fs::write("fig4_footprint.ppm", data.ppm()).is_ok() {
                println!("(wrote fig4_footprint.ppm)");
            }
            data.to_string()
        });
    }
    if want("fig5") {
        section("fig5", || exp::fig5(scale).to_string());
    }
    if want("fig6") {
        section("fig6", || exp::fig6(scale).to_string());
    }
    if want("fig7") {
        section("fig7", || exp::fig7(scale).to_string());
    }
    if want("fig8") {
        section("fig8", || exp::fig8(scale).to_string());
    }
    if want("fig9") {
        section("fig9", || exp::fig9(scale).to_string());
    }
    if want("fig10") {
        section("fig10", || exp::fig10(scale).to_string());
    }
    if want("fig11") {
        section("fig11", || exp::fig11(scale).to_string());
    }
    if want("fig12") {
        section("fig12", || exp::fig12(scale).to_string());
    }
    if want("fig13") {
        section("fig13", || exp::fig13(scale).to_string());
    }
    if want("ablations") {
        section("ablations", || exp::ablations(scale).to_string());
    }

    println!("\ntotal harness time: {:.1}s", t0.elapsed().as_secs_f64());
}

fn section<F: FnOnce() -> String>(name: &str, run: F) {
    let t = Instant::now();
    println!("==================== {name} ====================");
    let body = run();
    println!("{body}");
    println!("[{name} took {:.1}s]\n", t.elapsed().as_secs_f64());
}
