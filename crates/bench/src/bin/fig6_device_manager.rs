//! Regenerates Figure 6 — average runtime of the Mandelbrot application when
//! 1–4 instances share the GPU server, with and without the device manager —
//! plus the cluster resource-manager benchmarks: 200 concurrent clients
//! contending for fractional GPU shares under each scheduling policy, and
//! the drain-and-migrate bit-correctness scenario.
//!
//! Flags:
//!
//! * `--smoke` — downscale the classic sweep (CI-friendly; the contention
//!   and migration benchmarks run at full size either way).
//! * `--json`  — also write `BENCH_fig6.json` to the current directory.

use dcl_bench::fig6;
use dcl_bench::report::{print_table, secs, write_json, JsonValue};
use devmgr::Strategy;

/// Concurrent clients driven at the 2-node cluster per policy.
const CONTENTION_CLIENTS: usize = 200;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a != "--smoke" && a != "--json") {
        eprintln!("usage: fig6_device_manager [--smoke] [--json]");
        std::process::exit(2);
    }

    let (counts, functional_scale): (&[usize], usize) =
        if smoke { (&[1, 3], 24) } else { (&[1, 2, 3, 4], 16) };
    println!("Figure 6 — concurrent application instances sharing one 4-GPU server (GigE)");
    println!("(functional computation downscaled by {functional_scale}x per dimension)");
    let rows = fig6::run(counts, functional_scale).expect("figure 6 harness");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.clients.to_string(),
                if r.with_device_manager { "with DM" } else { "w/o DM" }.to_string(),
                secs(r.breakdown.initialization),
                secs(r.breakdown.execution),
                secs(r.breakdown.data_transfer),
                secs(r.breakdown.total()),
            ]
        })
        .collect();
    print_table(
        "Average runtime per application instance (seconds)",
        &["clients", "device manager", "initialization", "execution", "data transfer", "total"],
        &table,
    );

    let policies = [Strategy::FirstFit, Strategy::RoundRobin, Strategy::Fair];
    let contention: Vec<_> = policies
        .iter()
        .map(|&policy| {
            fig6::cluster_contention(policy, CONTENTION_CLIENTS).expect("contention harness")
        })
        .collect();
    let table: Vec<Vec<String>> = contention
        .iter()
        .map(|c| {
            vec![
                format!("{:?}", c.policy),
                c.clients.to_string(),
                c.admitted.to_string(),
                c.rejected.to_string(),
                format!("{:.3}", c.latency_ms.p50),
                format!("{:.3}", c.latency_ms.p95),
                format!("{:.3}", c.latency_ms.p99),
                c.min_work.to_string(),
                c.max_work.to_string(),
                c.work_ratio().map(|r| format!("{r:.2}")).unwrap_or_else(|| "inf".into()),
            ]
        })
        .collect();
    print_table(
        &format!("{CONTENTION_CLIENTS} clients vs a 2-node cluster (latency in ms, work in compute millis)"),
        &[
            "policy", "clients", "admitted", "rejected", "p50", "p95", "p99", "min work",
            "max work", "max/min",
        ],
        &table,
    );

    let migration = fig6::migration_bit_correctness().expect("migration harness");
    println!(
        "\n== Drain-and-migrate ==\n  lease moved {} -> {}, {} bands before + {} after, bit-correct: {}",
        migration.from_server,
        migration.to_server,
        migration.bands_before,
        migration.bands_after,
        migration.bit_correct
    );
    assert!(migration.bit_correct, "migrated workload must stay bit-correct");

    if json {
        let classic = JsonValue::Arr(
            rows.iter()
                .map(|r| {
                    JsonValue::obj([
                        ("clients", JsonValue::num(r.clients as u32)),
                        ("with_device_manager", JsonValue::Bool(r.with_device_manager)),
                        (
                            "initialization_s",
                            JsonValue::Num(r.breakdown.initialization.as_secs_f64()),
                        ),
                        ("execution_s", JsonValue::Num(r.breakdown.execution.as_secs_f64())),
                        (
                            "data_transfer_s",
                            JsonValue::Num(r.breakdown.data_transfer.as_secs_f64()),
                        ),
                        ("total_s", JsonValue::Num(r.breakdown.total().as_secs_f64())),
                    ])
                })
                .collect(),
        );
        let contention_json = JsonValue::Arr(
            contention
                .iter()
                .map(|c| {
                    JsonValue::obj([
                        ("policy", JsonValue::str(format!("{:?}", c.policy))),
                        ("clients", JsonValue::num(c.clients as u32)),
                        ("admitted", JsonValue::num(c.admitted as u32)),
                        ("rejected", JsonValue::num(c.rejected as u32)),
                        (
                            "latency_ms",
                            JsonValue::obj([
                                ("p50", JsonValue::Num(c.latency_ms.p50)),
                                ("p95", JsonValue::Num(c.latency_ms.p95)),
                                ("p99", JsonValue::Num(c.latency_ms.p99)),
                            ]),
                        ),
                        (
                            "completed_work",
                            JsonValue::obj([
                                ("min", JsonValue::num(c.min_work as u32)),
                                ("max", JsonValue::num(c.max_work as u32)),
                                (
                                    "max_over_min",
                                    c.work_ratio().map(JsonValue::Num).unwrap_or(JsonValue::Null),
                                ),
                            ]),
                        ),
                    ])
                })
                .collect(),
        );
        let migration_json = JsonValue::obj([
            ("from_server", JsonValue::str(migration.from_server.clone())),
            ("to_server", JsonValue::str(migration.to_server.clone())),
            ("bands_before", JsonValue::num(migration.bands_before as u32)),
            ("bands_after", JsonValue::num(migration.bands_after as u32)),
            ("bit_correct", JsonValue::Bool(migration.bit_correct)),
        ]);
        let report = JsonValue::obj([
            ("figure", JsonValue::str("fig6")),
            ("smoke", JsonValue::Bool(smoke)),
            ("functional_scale", JsonValue::num(functional_scale as u32)),
            ("classic", classic),
            ("contention", contention_json),
            ("migration", migration_json),
        ]);
        write_json("BENCH_fig6.json", &report).expect("write BENCH_fig6.json");
        println!("\nwrote BENCH_fig6.json");
    }
}
