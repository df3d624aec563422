//! Figure 5 reproduction: normalized design area vs normalized average
//! relative error and normalized average absolute error, one trade-off
//! curve per benchmark.
//!
//! Run: `cargo run -p blasys-bench --bin fig5 --release`
//! Subsets: `BLASYS_BENCHES=Adder32,Mult8 cargo run ...`

use blasys_bench::{print_table, selected_benchmarks, standard_flow_for};
use blasys_core::{run, ExploreSpec};

fn main() {
    for b in selected_benchmarks() {
        let nl = b.build();
        eprintln!("[fig5] running {} ({} gates)...", b.name, nl.gate_count());
        let result = run(
            &nl,
            standard_flow_for(&b, &nl),
            &ExploreSpec::new().exhaust(),
        )
        .expect("suite circuits run");
        let traj = result.trajectory();
        let base_area = traj[0].model_area_um2;
        let max_rel = traj
            .iter()
            .map(|p| p.qor.avg_relative)
            .fold(f64::MIN_POSITIVE, f64::max);

        let mut rows = Vec::new();
        let stride = (traj.len() / 24).max(1);
        for p in traj.iter() {
            if p.step % stride != 0 && p.step + 1 != traj.len() {
                continue;
            }
            rows.push(vec![
                p.step.to_string(),
                format!("{:.3}", p.qor.avg_relative / max_rel),
                format!("{:.3e}", p.qor.norm_absolute),
                format!("{:.3}", p.model_area_um2 / base_area),
            ]);
        }
        println!();
        println!(
            "Figure 5 ({}) — {} clusters, {} trajectory points",
            b.name,
            result.partition().len(),
            traj.len()
        );
        print_table(
            &["step", "norm avg rel err", "norm avg abs err", "norm area"],
            &rows,
        );
    }
    println!();
    println!("expected shape: area falls smoothly as the error budget grows;");
    println!("larger circuits produce smoother curves than small ones");
}
