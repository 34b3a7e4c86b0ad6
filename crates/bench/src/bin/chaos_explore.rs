//! Explores seeded chaos plans under the omniscient safety auditor and
//! shrinks + prints any violating plan (see EXPERIMENTS.md).
fn main() {
    let mut plans = 200u64;
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if let Ok(v) = arg.parse::<u64>() {
            plans = v;
        }
    }
    if smoke {
        plans = plans.min(24);
    }
    let out = ubft_bench::chaos_explore(plans);
    print!("{out}");
    assert!(out.contains("violating: 0"), "chaos exploration found audit violations");
}
