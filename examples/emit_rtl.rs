//! Compile a benchmark all the way to Verilog RTL, before and after
//! optimization, and show how the FSM shrinks — the LegUp-style back end
//! of the AutoPhase flow.
//!
//! ```sh
//! cargo run --example emit_rtl [benchmark-name]
//! ```

use autophase::hls::{profile::profile_module, rtl, HlsConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "matmul".to_string());
    let module = autophase::benchmarks::suite::by_name(&name).ok_or("unknown benchmark name")?;
    let hls = HlsConfig::default();

    let report = profile_module(&module, &hls)?;
    let verilog = rtl::emit_module(&module, &hls);
    println!(
        "`{name}` unoptimized: {} cycles, {} FSM states, {} lines of RTL",
        report.cycles,
        report.total_states,
        verilog.lines().count()
    );

    let mut optimized = module.clone();
    autophase::passes::o3::o3_checked(&mut optimized, &Default::default());
    let report2 = profile_module(&optimized, &hls)?;
    let verilog2 = rtl::emit_module(&optimized, &hls);
    println!(
        "`{name}` after -O3: {} cycles, {} FSM states, {} lines of RTL",
        report2.cycles,
        report2.total_states,
        verilog2.lines().count()
    );
    println!(
        "area estimate: {} → {} units\n",
        report.area.total(),
        report2.area.total()
    );

    println!("--- first 40 lines of the optimized design ---");
    for line in verilog2.lines().take(40) {
        println!("{line}");
    }
    Ok(())
}
