//! Sizing a search cluster: arrays of intra-disk parallel drives vs.
//! conventional drives under a steady random-read load (the §7.3
//! question: "should one go in for a RAID array made up of conventional
//! disk drives or an array composed of intra-disk parallel drives?").
//!
//! ```text
//! cargo run --release -p experiments --example search_cluster
//! ```

use array::Layout;
use experiments::configs::hcsd_params;
use experiments::run_array;
use intradisk::DriveConfig;
use workload::SyntheticSpec;

fn main() {
    // Heavy search-style load: 1 ms mean inter-arrival.
    let params = hcsd_params();
    let spec = SyntheticSpec::paper(1.0, params.capacity_sectors(), 60_000);
    let trace = spec.generate(3);

    println!("steady 1 ms inter-arrival load; 90th-percentile response time (ms):\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "disks", "HC-SD", "SA(2)", "SA(4)"
    );
    let mut iso: Vec<(String, f64)> = Vec::new();
    for disks in [2usize, 4, 8, 16] {
        let mut row = format!("{disks:>6}");
        for n in [1u32, 2, 4] {
            let r = run_array(
                &params,
                DriveConfig::sa(n),
                disks,
                Layout::striped_default(),
                &trace,
            )
            .expect("replay succeeds");
            let p90 = r.p90_ms();
            row.push_str(&format!(" {p90:>12.1}"));
            // Remember the cheapest config of each type that keeps p90
            // under 25 ms.
            if p90 < 25.0 && !iso.iter().any(|(l, _)| l.starts_with(&format!("SA({n})"))) {
                iso.push((format!("SA({n}) x {disks}"), r.power.total_w()));
            }
        }
        println!("{row}");
    }

    println!("\nsmallest configurations keeping p90 < 25 ms:");
    for (label, power) in &iso {
        println!("  {label:>12}: {power:6.1} W");
    }
    println!(
        "\nArrays of intra-disk parallel drives hit the target with fewer \
         spindles, cutting array power 41-60% (Figure 8)."
    );
}
