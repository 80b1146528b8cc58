//! Figure 4: why buffer fullness identifies the bottleneck.
//!
//! A four-component chain A → B → C → D where each component delegates
//! work to the next. C is throughput-limited. The paper's claim: B's and
//! D's buffers stay shallow while C's input buffer is persistently full —
//! so buffer fullness points straight at C.
//!
//! The chain itself lives in [`rtm_bench::chain`], shared with the
//! `perfbench` `chain` workload.

use akita::VTime;
use rtm_bench::chain::build_chain_sim;
use rtm_bench::textfig::print_table;

fn main() {
    let mut sim = build_chain_sim(500);

    // Snapshot buffer levels mid-run (like clicking the analyzer while the
    // chain is saturated), then finish.
    sim.run_until(VTime::from_ns(100));
    let registry = sim.buffer_registry();
    let mut mid_levels: Vec<(String, usize, usize)> = registry
        .snapshot()
        .into_iter()
        .filter(|b| b.name.ends_with(".In.Buf"))
        .map(|b| (b.name, b.size, b.capacity))
        .collect();
    mid_levels.sort();
    sim.run();

    println!("=== Figure 4: buffer fullness identifies the bottleneck ===");
    println!("chain: Source → A(1 cy/task) → B(2) → C(8, slow) → D(1)\n");
    let rows: Vec<Vec<String>> = mid_levels
        .iter()
        .map(|(name, size, cap)| {
            vec![
                name.clone(),
                size.to_string(),
                cap.to_string(),
                format!("{:.0}%", *size as f64 / *cap as f64 * 100.0),
            ]
        })
        .collect();
    print_table(&["buffer (mid-run)", "size", "cap", "fill"], &rows);

    let level = |n: &str| {
        mid_levels
            .iter()
            .find(|(name, _, _)| name.starts_with(n))
            .map_or(0, |(_, s, _)| *s)
    };
    println!();
    let (b, c, d) = (level("B"), level("C"), level("D"));
    if c >= 7 && b <= 4 && d <= 2 {
        println!("REPRODUCED: C's input buffer is full ({c}/8) while B ({b}/8) and D ({d}/8) stay");
        println!("shallow — buffer fullness points at C, the slow component, as Fig 4 argues.");
    } else {
        println!("UNEXPECTED: B={b}/8 C={c}/8 D={d}/8 — bottleneck signature not visible");
        std::process::exit(1);
    }
}
