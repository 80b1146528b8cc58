//! `rtm-sim` — run a monitored GPU simulation from the command line.
//!
//! ```text
//! rtm-sim --workload im2col --chiplets 4 --port 8080 --hold
//! rtm-sim --dump-config > machine.json   # edit, then:
//! rtm-sim --config machine.json --workload matmul
//! rtm-sim analyze --chiplets 4            # lint the wiring, then run
//! rtm-sim analyze --inject-deadlock       # exits nonzero naming the cycle
//! rtm-sim trace --out trace.json          # task-lifetime Chrome trace
//! ```

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use akita::VTime;
use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_mem::L2Config;
use akita_rtm::{Monitor, RtmServer, WatchdogConfig};
use akita_workloads::{by_name, extended_suite};

const USAGE: &str = "\
rtm-sim — run a monitored GPU simulation (AkitaRTM reproduction)

USAGE:
    rtm-sim [run] [OPTIONS]
    rtm-sim analyze [OPTIONS]
    rtm-sim trace [OPTIONS]

SUBCOMMANDS:
    run                     run the workload (the default when no
                            subcommand is given)
    analyze                 lint the platform's wiring (unattached ports,
                            undersized buffers, potential backpressure
                            cycles), run the workload, and report any
                            deadlock cycle if the machine hangs; exits
                            nonzero on error-level findings or a deadlock
    trace                   run the workload with task-lifetime tracing on
                            and write a Chrome/Perfetto trace-event JSON
                            file (open in chrome://tracing or ui.perfetto.dev)

OPTIONS:
    --workload <name>       benchmark to run (default: fir)
    --list-workloads        print the available benchmarks and exit
    --cus <n>               compute units per chiplet (default: 8)
    --chiplets <n>          GPU chiplets (default: 1)
    --net-bandwidth <bps>   inter-chiplet link bandwidth in bytes/sec
    --net-latency-ns <n>    inter-chiplet link latency in nanoseconds
    --config <file.json>    load a full PlatformConfig (overrides the above)
    --dump-config           print the default PlatformConfig as JSON and exit
    --port <p>              monitor HTTP port (default: 0 = ephemeral)
    --hold                  keep the simulation inspectable after it finishes
                            (terminate via the dashboard or POST /api/terminate)
    --no-monitor            run without the monitor (baseline timing)
    --threads <n>           run the conservative-window parallel engine
                            with <n> worker threads, partitioned one per
                            GPU chiplet plus one host partition; event
                            logs are bit-identical for every <n> (omit
                            the flag entirely for the legacy serial loop)
    --flush                 flush caches between kernels (MGPUSim's model)
    --inject-deadlock       enable the Case Study 2 L2 write-buffer bug
    --faults <plan.json>    install a deterministic fault-injection plan
                            (akita::faults) before the run; component
                            handler panics are caught and reported instead
                            of killing the process
    --watchdog              run under the stall watchdog: auto-detects
                            livelocks, backpressure deadlocks, and drained
                            queues; without --hold a genuine stall ends
                            the run
    --json                  (analyze) print the final LintReport as JSON
    --out <file.json>       (trace) output path (default: trace.json)
    -h, --help              show this help

EXIT CODES:
    0  success        2  bad usage        3  workload did not complete
    4  analyze found errors or a deadlock
    5  the watchdog declared a livelock or backpressure stall
    6  a component handler crashed (panicked)
";

struct Args {
    analyze: bool,
    trace: bool,
    out: String,
    json: bool,
    workload: String,
    cus: Option<usize>,
    chiplets: Option<usize>,
    net_bandwidth: Option<u64>,
    net_latency_ns: Option<u64>,
    config: Option<String>,
    threads: Option<usize>,
    port: u16,
    hold: bool,
    no_monitor: bool,
    inject_deadlock: bool,
    flush: bool,
    faults: Option<String>,
    watchdog: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        analyze: false,
        trace: false,
        out: "trace.json".into(),
        json: false,
        workload: "fir".into(),
        cus: None,
        chiplets: None,
        net_bandwidth: None,
        net_latency_ns: None,
        config: None,
        threads: None,
        port: 0,
        hold: false,
        no_monitor: false,
        inject_deadlock: false,
        flush: false,
        faults: None,
        watchdog: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "run" => {}
            "analyze" => args.analyze = true,
            "trace" => args.trace = true,
            "--faults" => args.faults = Some(value("--faults")),
            "--watchdog" => args.watchdog = true,
            "--out" => args.out = value("--out"),
            "--json" => args.json = true,
            "--workload" => args.workload = value("--workload"),
            "--list-workloads" => {
                for w in extended_suite() {
                    println!("{}", w.name());
                }
                exit(0);
            }
            "--cus" => {
                args.cus = Some(value("--cus").parse().unwrap_or_else(|_| die("bad --cus")));
            }
            "--chiplets" => {
                args.chiplets = Some(
                    value("--chiplets")
                        .parse()
                        .unwrap_or_else(|_| die("bad --chiplets")),
                );
            }
            "--net-bandwidth" => {
                args.net_bandwidth = Some(
                    value("--net-bandwidth")
                        .parse()
                        .unwrap_or_else(|_| die("bad --net-bandwidth")),
                );
            }
            "--net-latency-ns" => {
                args.net_latency_ns = Some(
                    value("--net-latency-ns")
                        .parse()
                        .unwrap_or_else(|_| die("bad --net-latency-ns")),
                );
            }
            "--config" => args.config = Some(value("--config")),
            "--threads" => {
                let n: usize = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("bad --threads"));
                if n == 0 {
                    die("--threads must be at least 1");
                }
                args.threads = Some(n);
            }
            "--dump-config" => {
                let cfg = PlatformConfig::default();
                println!(
                    "{}",
                    serde_json::to_string_pretty(&cfg).expect("config serializes")
                );
                exit(0);
            }
            "--port" => {
                args.port = value("--port")
                    .parse()
                    .unwrap_or_else(|_| die("bad --port"));
            }
            "--hold" => args.hold = true,
            "--flush" => args.flush = true,
            "--no-monitor" => args.no_monitor = true,
            "--inject-deadlock" => args.inject_deadlock = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                exit(0);
            }
            other => die(&format!("unknown option {other}")),
        }
    }
    args
}

fn build_config(args: &Args) -> PlatformConfig {
    let mut cfg = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
        }
        None => PlatformConfig {
            gpu: GpuConfig::default(),
            ..PlatformConfig::default()
        },
    };
    if let Some(cus) = args.cus {
        cfg.gpu.cus_per_chiplet = cus;
    }
    if let Some(chiplets) = args.chiplets {
        cfg.chiplets = chiplets;
    }
    if let Some(bw) = args.net_bandwidth {
        cfg.net_bandwidth = Some(bw);
    }
    if let Some(ns) = args.net_latency_ns {
        cfg.net_latency = VTime::from_ns(ns);
    }
    if args.flush {
        cfg.gpu.dispatcher.flush_between_kernels = true;
    }
    if args.inject_deadlock {
        cfg.gpu.l2 = L2Config {
            size_bytes: 2048,
            ways: 2,
            write_buffer_cap: 1,
            inject_writeback_deadlock: true,
            ..cfg.gpu.l2
        };
    }
    cfg
}

/// Prints one lint report section in human-readable form.
fn print_findings(report: &akita::LintReport) {
    println!(
        "  {} components, {} connections, {} ports",
        report.components, report.connections, report.ports
    );
    if report.findings.is_empty() {
        println!("  no findings");
    }
    for f in &report.findings {
        println!("  {f}");
    }
    for c in &report.potential_cycles {
        println!(
            "  info[potential-backpressure-cycle] {}",
            c.members.join(" ~ ")
        );
    }
}

/// The `analyze` subcommand: static wiring lints, then a full run, then
/// the runtime wait-for analysis. Exits nonzero on error-level findings
/// or an observed deadlock.
fn run_analyze(args: &Args) -> ! {
    let workload = by_name(&args.workload).unwrap_or_else(|| {
        die(&format!(
            "unknown workload `{}` (try --list-workloads)",
            args.workload
        ))
    });
    let cfg = build_config(args);
    let mut platform = Platform::build(cfg);
    workload.enqueue(&mut platform.driver.borrow_mut());
    platform.start();

    if !args.json {
        println!("== static analysis ==");
        print_findings(&platform.sim.analyze());
        println!("\nrunning workload `{}` to quiescence...", args.workload);
    }
    let summary = platform.sim.run();
    let report = platform.sim.analyze();

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
    } else {
        println!(
            "\n== runtime analysis ({} events, {} virtual) ==",
            summary.events, summary.end_time
        );
        let d = &report.deadlock;
        if d.is_deadlocked() {
            println!(
                "DEADLOCK: engine quiesced with {} message(s) still in flight",
                d.in_flight
            );
            for cycle in &d.cycles {
                println!("  blocked cycle: {}", cycle.join(" -> "));
            }
            for e in &d.wait_edges {
                println!("  wait: {} -> {}  ({})", e.from, e.to, e.reason);
            }
            for s in &d.suspects {
                println!("  suspect: {}: {}", s.component, s.reason);
            }
        } else if platform.driver.borrow().finished() {
            println!("workload completed; no deadlock observed.");
        } else {
            println!("workload unfinished but no messages in flight (starvation?).");
        }
        println!(
            "\n{} error(s), {} finding(s) total",
            report.error_count(),
            report.findings.len()
        );
    }
    exit(if report.has_errors() { 4 } else { 0 })
}

/// The `trace` subcommand: run the workload with task-lifetime tracing on
/// and dump the spans as Chrome trace-event JSON.
fn run_trace(args: &Args) -> ! {
    let workload = by_name(&args.workload).unwrap_or_else(|| {
        die(&format!(
            "unknown workload `{}` (try --list-workloads)",
            args.workload
        ))
    });
    let cfg = build_config(args);
    let mut platform = Platform::build(cfg);
    workload.enqueue(&mut platform.driver.borrow_mut());
    platform.start();

    akita::trace::set_enabled(true);
    let start = std::time::Instant::now();
    let summary = platform.sim.run();
    let wall = start.elapsed();
    akita::trace::set_enabled(false);

    let report = akita::trace::snapshot(akita::trace::SPAN_RING_CAP, 0);
    let doc = report.to_chrome_trace();
    std::fs::write(
        &args.out,
        serde_json::to_string(&doc).expect("trace serializes"),
    )
    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", args.out)));
    println!(
        "traced `{}`: {} events in {:.3}s; {} spans ({} dropped) -> {}",
        args.workload,
        summary.events,
        wall.as_secs_f64(),
        report.spans.len(),
        report.spans_dropped,
        args.out
    );
    exit(if platform.driver.borrow().finished() {
        0
    } else {
        3
    })
}

fn main() {
    let args = parse_args();
    if args.analyze {
        run_analyze(&args);
    }
    if args.trace {
        run_trace(&args);
    }
    let workload = by_name(&args.workload).unwrap_or_else(|| {
        die(&format!(
            "unknown workload `{}` (try --list-workloads)",
            args.workload
        ))
    });
    let cfg = build_config(&args);

    println!(
        "building platform: {} chiplet(s) x {} CUs, workload `{}`",
        cfg.chiplets, cfg.gpu.cus_per_chiplet, args.workload
    );
    let mut platform = Platform::build(cfg);
    workload.enqueue(&mut platform.driver.borrow_mut());
    platform.start();

    if let Some(path) = &args.faults {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        let plan = akita::FaultPlan::from_json(&text)
            .unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));
        let installed = platform.sim.install_faults(&plan);
        println!(
            "fault plan `{path}` installed: {} rule(s), {} site(s) matched",
            installed.rules_installed, installed.sites_matched
        );
        for site in &installed.sites_unknown {
            println!("  note: site `{site}` is not registered (the rule stays armed)");
        }
    }
    if args.watchdog && args.no_monitor {
        die("--watchdog needs the monitor (drop --no-monitor)");
    }
    if let Some(threads) = args.threads {
        platform
            .sim
            .set_parallel(
                platform
                    .partition_plan()
                    .unwrap_or_else(|e| die(&format!("cannot build a partition plan: {e}"))),
                threads,
            )
            .unwrap_or_else(|e| die(&format!("cannot enable the parallel engine: {e}")));
        let report = platform.sim.parallel_report().expect("parallel is on");
        println!(
            "parallel engine: {} worker thread(s), {} partition(s), lookahead {} ps",
            report.threads,
            report.partitions.len(),
            report.lookahead_ps
        );
    }

    let monitored = if args.no_monitor {
        None
    } else {
        let counts = platform.sim.add_hook(akita::EventCountHook::default());
        let monitor = Arc::new(Monitor::attach(
            &platform.sim,
            platform.progress.clone(),
            Duration::from_millis(100),
        ));
        monitor.set_event_counts(counts.borrow().shared());
        if let Some(par) = platform.sim.parallel_shared() {
            monitor.set_par_stats(par);
        }
        let addr = format!("127.0.0.1:{}", args.port)
            .parse()
            .expect("valid socket address");
        let server = RtmServer::start(Arc::clone(&monitor), addr).unwrap_or_else(|e| {
            eprintln!("error: cannot bind monitor server: {e}");
            exit(1)
        });
        println!("AkitaRTM listening on {}", server.url());
        if args.watchdog {
            // Holding: freeze the stall for inspection. Batch: end the run
            // so the process exits with the documented code instead of
            // hanging CI.
            let config = monitor.enable_watchdog(WatchdogConfig {
                auto_pause: args.hold,
                stop_on_stall: !args.hold,
                ..WatchdogConfig::default()
            });
            println!(
                "watchdog armed: {} ms x {} checks{}",
                config.interval.as_millis(),
                config.stall_checks,
                if config.stop_on_stall {
                    " (a stall ends the run)"
                } else {
                    " (a stall pauses the simulation)"
                }
            );
        }
        Some((monitor, server))
    };

    // The watchdog and fault plans need the engine answering queries and
    // surviving handler panics, so those paths run caught + interactive.
    let resilient = args.watchdog || args.faults.is_some();
    let start = std::time::Instant::now();
    let summary = if args.hold {
        println!("--hold: the simulation stays inspectable; terminate from the dashboard.");
        platform.sim.run_caught(true)
    } else if resilient {
        platform.sim.run_caught(args.watchdog)
    } else {
        platform.sim.run()
    };
    let wall = start.elapsed();

    println!(
        "\ndone: {} events, {} of virtual time, {:.3}s of wall time ({:.1}M events/s)",
        summary.events,
        summary.end_time,
        wall.as_secs_f64(),
        summary.events as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
    );

    if summary.reason == akita::StopReason::Crashed {
        let crash = platform.sim.client().crash_info();
        match &crash {
            Some(c) => println!(
                "CRASH: component `{}` panicked after {} events: {}",
                c.component, c.events, c.message
            ),
            None => println!("CRASH: a component handler panicked"),
        }
        if args.hold {
            println!("--hold: serving post-mortem queries; terminate from the dashboard.");
            platform.sim.serve_post_mortem();
        }
        drop(monitored);
        exit(6);
    }

    let stall = monitored
        .as_ref()
        .and_then(|(monitor, _)| monitor.watchdog_stall());
    if platform.driver.borrow().finished() {
        println!("workload completed.");
    } else if let Some(stall) = &stall {
        println!("workload DID NOT complete — watchdog: {}", stall.detail);
        for cycle in &stall.cycles {
            println!("  blocked cycle: {}", cycle.join(" -> "));
        }
        for suspect in &stall.suspects {
            println!("  suspect: {suspect}");
        }
    } else {
        println!("workload DID NOT complete — the simulation quiesced early (hang?).");
        println!("rerun with --hold to inspect it through the dashboard.");
    }
    for bar in platform.progress.snapshot() {
        println!("  {}: {}/{}", bar.name, bar.finished, bar.total);
    }
    drop(monitored);
    let genuine_stall = stall.as_ref().is_some_and(|s| {
        matches!(
            s.kind,
            akita_rtm::StallKind::Livelock | akita_rtm::StallKind::Backpressure
        )
    });
    if genuine_stall {
        exit(5);
    }
    if !platform.driver.borrow().finished() && !args.hold {
        exit(3);
    }
}
