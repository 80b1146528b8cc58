//! Robustness end-to-end tests: fault plans injected over HTTP, a hostile
//! request body that must not take the process down, the stall watchdog
//! diagnosing an injected hang through the full RTM loop, and a crashed
//! simulation that keeps answering HTTP queries post-mortem.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use akita::{CompBase, Component, Ctx, ProgressRegistry, Simulation, StopReason, VTime};
use akita_gpu::{GpuConfig, Platform, PlatformConfig};
use akita_rtm::{client, Monitor, RtmServer};
use akita_workloads::{Fir, Workload};

struct Rig {
    addr: SocketAddr,
    server: RtmServer,
    sim_thread: thread::JoinHandle<akita::RunSummary>,
}

/// Builds a monitored FIR simulation on the simulation thread (the platform
/// is deliberately `!Send`), runs it with `run_caught` so injected hangs
/// and crashes stay inspectable, and hands the server handle back.
fn launch(samples: u64) -> Rig {
    let cfg = PlatformConfig {
        gpu: GpuConfig::scaled(4),
        ..PlatformConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let sim_thread = thread::spawn(move || {
        let mut platform = Platform::build(cfg);
        let fir = Fir {
            num_samples: samples,
            ..Fir::default()
        };
        fir.enqueue(&mut platform.driver.borrow_mut());
        platform.start();
        let monitor = Arc::new(Monitor::attach(
            &platform.sim,
            platform.progress.clone(),
            Duration::from_millis(10),
        ));
        let server = RtmServer::start_local(monitor).expect("bind server");
        tx.send(server).expect("hand server to test thread");
        platform.sim.run_caught(true)
    });
    let server = rx.recv().expect("server handle");
    Rig {
        addr: server.addr(),
        server,
        sim_thread,
    }
}

fn terminate(rig: Rig) -> akita::RunSummary {
    let _ = client::post(rig.addr, "/api/terminate", None);
    let summary = rig.sim_thread.join().expect("sim thread");
    rig.server.stop();
    summary
}

const HANG_SITE: &str = "GPU[0].L2[0].TopPort.Buf";

#[test]
fn fault_plans_round_trip_over_http() {
    let rig = launch(100_000);

    // Inert plan (prob 0): installs, arms, and visibly never fires.
    let plan = r#"{"seed":11,"rules":[
            {"site":"GPU[0].L2[0].TopPort","kind":{"drop":{"prob":0.0}}},
            {"site":"NoSuchSite","kind":{"freeze":{"from_ps":0,"for_ps":0}}}
        ]}"#;
    let injected = client::post(rig.addr, "/api/faults/inject", Some(plan)).expect("inject");
    assert!(injected.is_ok(), "inject: {}", injected.body);
    let summary = injected.json().unwrap();
    assert_eq!(summary["rules_installed"].as_u64().unwrap(), 2);
    assert_eq!(summary["sites_matched"].as_u64().unwrap(), 1);
    assert_eq!(summary["sites_unknown"][0], "NoSuchSite");

    // The report lists both rules, site names intact.
    let report = client::get(rig.addr, "/api/faults")
        .expect("faults")
        .json()
        .unwrap();
    assert_eq!(report["enabled"], true);
    assert_eq!(report["seed"].as_u64().unwrap(), 11);
    let rules = report["rules"].as_array().unwrap();
    assert_eq!(rules.len(), 2);
    assert!(rules.iter().any(|r| r["site"] == "GPU[0].L2[0].TopPort"));

    // Malformed plans are a 400, not a panic.
    let bad = client::post(rig.addr, "/api/faults/inject", Some("{not json")).unwrap();
    assert_eq!(bad.status, 400);

    terminate(rig);
}

/// A hostile body of 200,000 nested `[` used to overflow the connection
/// thread's stack inside the JSON parser and abort the whole process. It
/// must be an ordinary 400, and the monitor must keep serving.
#[test]
fn deeply_nested_json_post_is_rejected_and_the_monitor_keeps_serving() {
    let rig = launch(10_000);
    let body = "[".repeat(200_000);
    let rsp = client::post(rig.addr, "/api/faults/inject", Some(&body)).expect("inject");
    assert_eq!(rsp.status, 400, "{}", rsp.body);
    assert!(rsp.body.contains("nesting"), "{}", rsp.body);
    let status = client::get(rig.addr, "/api/status").expect("status");
    assert_eq!(status.status, 200, "{}", status.body);
    terminate(rig);
}

#[test]
fn watchdog_diagnoses_an_injected_hang_over_http() {
    let rig = launch(50_000);

    // No watchdog installed yet.
    let off = client::get(rig.addr, "/api/watchdog")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(off["enabled"], false);

    // Wedge the L2 front door forever, then arm a fast watchdog.
    let plan = format!(
        r#"{{"seed":7,"rules":[{{"site":"{HANG_SITE}","kind":{{"stuckfull":{{"from_ps":0,"for_ps":0}}}}}}]}}"#
    );
    let injected = client::post(rig.addr, "/api/faults/inject", Some(&plan)).expect("inject");
    assert!(injected.is_ok(), "inject: {}", injected.body);
    assert_eq!(
        injected.json().unwrap()["sites_matched"].as_u64().unwrap(),
        1
    );

    let enabled = client::post(
        rig.addr,
        "/api/watchdog/enable",
        Some(r#"{"interval_ms":20,"stall_checks":3}"#),
    )
    .expect("enable watchdog");
    assert!(enabled.is_ok(), "enable: {}", enabled.body);
    let echoed = enabled.json().unwrap();
    assert_eq!(echoed["interval_ms"].as_u64().unwrap(), 20);
    assert_eq!(echoed["stall_checks"].as_u64().unwrap(), 3);
    assert_eq!(echoed["auto_pause"], true);

    // The hang quiesces the engine; within a few heartbeat windows the
    // watchdog must latch a backpressure diagnosis naming the injected
    // site, and auto-pause.
    let start = Instant::now();
    let stall = loop {
        let status = client::get(rig.addr, "/api/watchdog")
            .expect("watchdog status")
            .json()
            .unwrap();
        if status["stall"].is_object() {
            break status["stall"].clone();
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "watchdog never declared a stall: {status}"
        );
        thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(stall["kind"], "backpressure", "stall: {stall}");
    assert_eq!(stall["paused"], true);
    assert!(stall["detail"]
        .as_str()
        .unwrap()
        .contains("backpressure deadlock"));
    assert!(
        stall["suspects"].as_array().unwrap().iter().any(|s| s
            .as_str()
            .unwrap()
            .contains(HANG_SITE)
            && s.as_str().unwrap().contains("injected stuck-full")),
        "stall must name the injected site: {stall}"
    );
    assert!(!stall["cycles"].as_array().unwrap().is_empty());

    // The stall also landed in the alert feed, attributed to the watchdog.
    let alerts = client::get(rig.addr, "/api/alerts")
        .unwrap()
        .json()
        .unwrap();
    let fired = alerts
        .as_array()
        .unwrap()
        .iter()
        .find(|a| a["rule"]["component"] == "<watchdog>" && a["fired"].is_object());
    assert!(fired.is_some(), "no watchdog alert fired: {alerts}");
    assert_eq!(fired.unwrap()["rule"]["field"], "stall.backpressure");

    // Disarm: the endpoint flips back to enabled=false; double-disable is
    // honest about being a no-op.
    let off = client::delete(rig.addr, "/api/watchdog").unwrap();
    assert!(off.is_ok());
    assert_eq!(off.json().unwrap()["ok"], true);
    let again = client::delete(rig.addr, "/api/watchdog").unwrap();
    assert_eq!(again.json().unwrap()["ok"], false);
    let status = client::get(rig.addr, "/api/watchdog")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(status["enabled"], false);

    terminate(rig);
}

#[test]
fn watchdog_classifies_a_finished_workload_as_drained_idle() {
    let rig = launch(2_000);
    let enabled = client::post(
        rig.addr,
        "/api/watchdog/enable",
        Some(r#"{"interval_ms":20,"stall_checks":3,"auto_pause":false}"#),
    )
    .expect("enable watchdog");
    assert!(enabled.is_ok(), "enable: {}", enabled.body);

    // The tiny workload drains quickly; the watchdog should call that a
    // clean drained-idle, not a deadlock.
    let start = Instant::now();
    let stall = loop {
        let status = client::get(rig.addr, "/api/watchdog")
            .expect("watchdog status")
            .json()
            .unwrap();
        if status["stall"].is_object() {
            break status["stall"].clone();
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "watchdog never declared a stall: {status}"
        );
        thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(stall["kind"], "drainedidle", "stall: {stall}");
    assert_eq!(stall["paused"], false);
    assert!(stall["suspects"].as_array().unwrap().is_empty());

    terminate(rig);
}

/// A component whose handler panics after a few ticks.
struct Bomb {
    base: CompBase,
    ticks: u64,
}

impl Component for Bomb {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }
    fn tick(&mut self, _ctx: &mut Ctx) -> bool {
        self.ticks += 1;
        assert!(self.ticks < 5, "kaboom");
        true
    }
}

#[test]
fn crashed_simulation_keeps_answering_http_post_mortem() {
    let (tx, rx) = std::sync::mpsc::channel();
    let sim_thread = thread::spawn(move || {
        let mut sim = Simulation::new();
        let (id, _) = sim.register(Bomb {
            base: CompBase::new("Bomb", "B"),
            ticks: 0,
        });
        sim.wake_at(id, VTime::ZERO);
        let monitor = Arc::new(Monitor::attach(
            &sim,
            ProgressRegistry::new(),
            Duration::from_millis(10),
        ));
        let server = RtmServer::start_local(monitor).expect("bind server");
        tx.send(server).expect("hand server to test thread");
        let summary = sim.run_caught(true);
        sim.serve_post_mortem();
        summary
    });
    let server = rx.recv().expect("server handle");
    let addr = server.addr();

    // The crash must not take the HTTP surface down: /api/status keeps
    // answering 200 with the crashed state and the crash details.
    let start = Instant::now();
    let status = loop {
        if let Ok(r) = client::get(addr, "/api/status") {
            if r.is_ok() {
                let j = r.json().unwrap();
                if j["state"] == "Crashed" {
                    break j;
                }
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "status never reported the crash"
        );
        thread::sleep(Duration::from_millis(10));
    };
    let crash = &status["crash"];
    assert!(crash.is_object(), "status must carry crash info: {status}");
    assert_eq!(crash["component"], "B");
    assert!(crash["message"].as_str().unwrap().contains("kaboom"));

    // The post-mortem surface stays useful: heartbeat, component list,
    // buffer table, and the trace export all answer.
    let now = client::get(addr, "/api/now").unwrap().json().unwrap();
    assert_eq!(now["state"], "Crashed");
    let comps = client::get(addr, "/api/components").unwrap();
    assert!(comps.is_ok(), "components: {}", comps.body);
    assert!(comps.body.contains("\"B\""));
    assert!(client::get(addr, "/api/buffers?top=5").unwrap().is_ok());
    let export = client::get(addr, "/api/trace/export").unwrap();
    assert!(export.is_ok(), "trace export: {}", export.body);

    // Terminate ends post-mortem serving; the run itself reported Crashed.
    let _ = client::post(addr, "/api/terminate", None);
    let summary = sim_thread.join().expect("sim thread");
    server.stop();
    assert_eq!(summary.reason, StopReason::Crashed);
}
