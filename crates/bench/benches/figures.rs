//! One benchmark per table/figure of the paper.
//!
//! Each benchmark runs the corresponding experiment pipeline at the
//! shared reduced scale and prints the headline numbers once, so
//! `cargo bench` both times the harness and regenerates every artifact.
//! Studies run on the serial executor here so the numbers time the
//! simulation pipeline itself; perfbench's `experiments.jobs_speedup`
//! measures the parallel executor.

use bench::{bench, bench_scale};
use experiments::{
    cost_analysis, limit_study, tech_table, BottleneckStudy, Executor, LimitStudy, RaidStudy,
    RpmStudy, SaStudy, Study,
};
use workload::WorkloadKind;

const WARMUP: usize = 1;
const SAMPLES: usize = 5;

fn limit_one(kind: WorkloadKind) -> limit_study::WorkloadComparison {
    LimitStudy::only(kind)
        .run(bench_scale(), &Executor::serial())
        .expect("replays cleanly")
        .workloads
        .into_iter()
        .next()
        .expect("one workload")
}

fn bench_table1() {
    bench(
        "table1_tech_comparison",
        WARMUP,
        SAMPLES,
        tech_table::render,
    );
    println!("{}", tech_table::render());
}

fn bench_fig2_fig3() {
    for kind in WorkloadKind::ALL {
        bench(
            &format!("fig2_fig3_limit_study_{}", kind.name()),
            WARMUP,
            SAMPLES,
            || limit_one(kind),
        );
    }
    let w = limit_one(WorkloadKind::TpcC);
    println!(
        "fig2/3 sample (TPC-C): MD mean {:.2} ms @ {:.1} W vs HC-SD mean {:.2} ms @ {:.1} W",
        w.md.response_time_ms.mean(),
        w.md.power.total_w(),
        w.hcsd.metrics.response_time_ms.mean(),
        w.hcsd.power.total_w()
    );
}

fn bench_fig4() {
    let scale = bench_scale();
    let exec = Executor::serial();
    let run = || {
        BottleneckStudy::only(WorkloadKind::TpcC)
            .run(scale, &exec)
            .expect("replays cleanly")
    };
    bench("fig4_bottleneck_tpcc", WARMUP, SAMPLES, run);
    let r = &run().workloads[0];
    println!(
        "fig4 sample (TPC-C): seek-elimination speedup {:.2}x, rotational {:.2}x",
        r.seek_elimination_speedup(),
        r.rot_elimination_speedup()
    );
}

fn bench_fig5() {
    let scale = bench_scale();
    let exec = Executor::serial();
    let run = || {
        SaStudy::only(WorkloadKind::Websearch)
            .run(scale, &exec)
            .expect("replays cleanly")
    };
    bench("fig5_sa_eval_websearch", WARMUP, SAMPLES, run);
    let report = run();
    let r = &report.workloads[0];
    println!(
        "fig5 sample (Websearch): SA(1..4) means {:?} ms vs MD {:.2} ms",
        r.means_ms, r.md_mean_ms
    );
}

fn bench_fig6_fig7() {
    let scale = bench_scale();
    let exec = Executor::serial();
    let run = || {
        RpmStudy::only(WorkloadKind::TpcH)
            .run(scale, &exec)
            .expect("replays cleanly")
    };
    bench("fig6_fig7_rpm_study_tpch", WARMUP, SAMPLES, run);
    let report = run();
    let be = report.workloads[0].break_even_points(1.25);
    println!(
        "fig6/7 sample (TPC-H): {} reduced-RPM designs break even with MD",
        be.len()
    );
}

fn bench_fig8() {
    let scale = bench_scale();
    let exec = Executor::serial();
    bench("fig8_raid_sweep_4ms", WARMUP, SAMPLES, || {
        RaidStudy::only(4.0)
            .run(scale, &exec)
            .expect("replays cleanly")
    });
    let report = RaidStudy::only(1.0)
        .run(scale, &exec)
        .expect("replays cleanly");
    let iso = report.sweeps[0].iso_performance(1.15);
    for p in iso {
        println!(
            "fig8 iso-performance @1ms: {} -> p90 {:.1} ms @ {:.1} W",
            p.label(),
            p.p90_ms,
            p.power.total_w()
        );
    }
}

fn bench_cost() {
    bench("table9a_fig9b_cost_model", WARMUP, SAMPLES, || {
        (
            cost_analysis::render_table9a(),
            cost_analysis::render_figure9b(),
        )
    });
    println!("{}", cost_analysis::render_figure9b());
}

fn main() {
    bench_table1();
    bench_fig2_fig3();
    bench_fig4();
    bench_fig5();
    bench_fig6_fig7();
    bench_fig8();
    bench_cost();
}
