//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <attach-flood|trace-mix|failover-lossy|wire-roundtrip>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation repeats one workload, single-threaded, until `--seconds`
//! of host time are used, and prints the metrics as a table and then, as
//! its last line, one JSON object. `--trace 0` reports the end-to-end
//! metrics from untraced runs; `--trace 1` alternates untraced and traced
//! runs and reports the per-layer split. Correctness gates fail the
//! invocation (exit code 1) when they trip.

mod alloc;
mod reference;
mod report;
mod sim;
mod trace;
mod wire;
mod workloads;

#[cfg(test)]
mod tests;

use neutrino_core::AuditReport;
use neutrino_messages::flow::FLOWS;
use neutrino_messages::SysMsg;
use reference::Reference;
use report::{median, peak_rss_mb, Report};
use sim::{run_untraced, HostSplit, Outcome};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{run_traced, Layer, Trace};
use workloads::{sim_inputs, SimInputs, Workload};

/// Repetitions every invocation makes, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One untraced repetition: set-up, measured phase, simulated outcome.
struct Rep {
    setup_s: f64,
    run_s: f64,
    /// The reference kernel's host time, the mean of one run just before
    /// and one just after the measured phase.
    ref_s: f64,
    host: HostSplit,
    outcome: Outcome,
    audit: AuditReport,
    /// `wire-roundtrip` only.
    wire: Option<WireRep>,
}

struct WireRep {
    /// Captured frames (dropped after the repetition, so peak memory does
    /// not grow with the repetition count). Each is round-tripped once in
    /// each codec.
    frames: usize,
    /// Failed round trips.
    failed: u64,
}

fn sim_rep(w: Workload, seed: u64, reference: &mut Reference) -> Rep {
    rep_of(|| sim_inputs(w, seed), reference)
}

/// An untraced repetition of the simulated inputs `make` returns. Set-up
/// (tens of milliseconds at most) sits between the first reference run
/// and the measured phase.
fn rep_of(make: impl FnOnce() -> SimInputs, reference: &mut Reference) -> Rep {
    let before = reference.time();
    let (outcome, host, audit) = run_untraced(make, None);
    let after = reference.time();
    Rep {
        setup_s: host.gen_s + host.build_s,
        run_s: host.run_s,
        ref_s: (before + after) / 2.0,
        host,
        outcome,
        audit,
        wire: None,
    }
}

/// The capture run of `wire-roundtrip`: generate, build and run with a tap
/// that keeps every delivered `SysMsg`.
fn capture(seed: u64) -> (Vec<SysMsg>, Outcome, HostSplit, AuditReport) {
    let captured = Arc::new(Mutex::new(Vec::new()));
    let tap = wire::capture_tap(Arc::clone(&captured));
    let (outcome, host, audit) =
        run_untraced(|| sim_inputs(Workload::WireRoundtrip, seed), Some(tap));
    let frames = std::mem::take(&mut *captured.lock().expect("capture is never poisoned"));
    (frames, outcome, host, audit)
}

/// Set-up is the capture run; the measured phase encodes, decodes and
/// checks every captured frame in both codecs.
fn wire_rep(seed: u64, reference: &mut Reference) -> Rep {
    let t = Instant::now();
    let (frames, outcome, host, audit) = capture(seed);
    let setup_s = t.elapsed().as_secs_f64();
    let before = reference.time();
    let t = Instant::now();
    let (failed, _) = wire::verify(&frames);
    let run_s = t.elapsed().as_secs_f64();
    let after = reference.time();
    Rep {
        setup_s,
        run_s,
        ref_s: (before + after) / 2.0,
        host,
        outcome,
        audit,
        wire: Some(WireRep {
            frames: frames.len(),
            failed,
        }),
    }
}

/// Repeats `step` until the next repetition would overrun `seconds`
/// (at least [`MIN_REPS`] times).
fn repeat<T>(seconds: u64, mut step: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(step());
        let last = t.elapsed();
        if out.len() >= MIN_REPS && start.elapsed() + last > budget {
            return out;
        }
    }
}

/// Gates every workload shares: determinism across repetitions, routing
/// and flow-contract counters, the audit, the round-trip check.
fn common_gates(r: &mut Report, w: Workload, reps: &[Rep]) {
    let first = &reps[0];
    r.gate(
        "sim-metrics-repeat-exactly",
        reps.iter().all(|x| x.outcome == first.outcome),
    );
    r.gate(
        "dropped-unroutable-zero",
        first.outcome.dropped_unroutable == 0,
    );
    r.gate("unexpected-msgs-zero", first.outcome.unexpected_msgs == 0);
    r.gate(
        "procedures-completed",
        first.outcome.completed > 0 && first.outcome.pct_samples > 0,
    );
    if w == Workload::FailoverLossy {
        // p90 needs ten samples beyond it.
        r.gate("probe-samples", first.outcome.probe_samples >= 100);
        r.gate("audit-ran", reps.iter().all(|x| x.audit.passes > 0));
        r.gate(
            "audit-divergences-zero",
            reps.iter().all(|x| x.audit.is_clean()),
        );
    }
}

/// The wire gate: every captured frame round-trips in both codecs.
fn wire_gate(r: &mut Report, frames: usize, failed: u64) {
    r.gate("wire-decode-encode-identity", frames > 0 && failed == 0);
}

/// Host times are in units of the reference kernel (`ref`): each
/// repetition's measured phase over the kernel runs around it, then the
/// median over repetitions. Set-up stays in seconds.
fn end_to_end(r: &mut Report, reps: &[Rep]) {
    let o = &reps[0].outcome;
    let setup_s = median(&reps.iter().map(|x| x.setup_s).collect::<Vec<_>>());
    let run_ref = median(&reps.iter().map(|x| x.run_s / x.ref_s).collect::<Vec<_>>());
    // On `wire-roundtrip` the measured phase round-trips the wire traffic
    // of the capture run's completed procedures, every frame in both codecs.
    let frames = match &reps[0].wire {
        Some(x) => (x.frames * wire::CODECS.len()) as f64,
        None => o.delivered as f64,
    };
    r.metric("setup_s", setup_s, "s");
    r.metric("run_ref", run_ref, "ref");
    r.metric("procs_per_ref", o.completed as f64 / run_ref, "1/ref");
    r.metric("frames_per_ref", frames / run_ref, "1/ref");
    r.metric(
        "peak_rss_mb",
        peak_rss_mb().unwrap_or(f64::NAN) - Reference::BUFFERS_MB,
        "MB",
    );
    r.metric("pct_mean_ms", o.pct_mean_ms, "ms");
    r.metric("pct_tail_ms", o.pct_tail_ms, "ms");
}

/// Attempted and failed work over every repetition: procedures for the
/// simulated workloads, frame round trips for `wire-roundtrip`.
fn tally_work(r: &mut Report, reps: &[Rep]) {
    for x in reps {
        match &x.wire {
            Some(wr) => {
                r.attempted += wr.frames as u64 * wire::CODECS.len() as u64;
                r.failed += wr.failed;
            }
            None => {
                r.attempted += x.outcome.started;
                r.failed += x.outcome.failed;
            }
        }
    }
}

fn info_line(w: Workload, args: &Args, reps: usize, o: &Outcome) -> String {
    format!(
        "info workload={} seed={} reps={} nproc={} loop={} events={} started={} completed={} failed={} \
         pct_samples={} pct_p50_ms={} pct_p99_ms={} probe_samples={} probe_pct_p50_ms={} probe_pct_p90_ms={}",
        w.name(),
        args.seed,
        reps,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
        if w == Workload::WireRoundtrip {
            "batch"
        } else {
            "open"
        },
        o.events,
        o.started,
        o.completed,
        o.failed,
        o.pct_samples,
        o.pct_p50_ms,
        o.pct_p99_ms,
        o.probe_samples,
        o.probe_p50_ms,
        o.probe_p90_ms,
    )
}

fn run_plain(args: &Args) -> Report {
    let w = args.workload;
    let mut reference = Reference::new();
    let reps = repeat(args.seconds, || match w {
        Workload::WireRoundtrip => wire_rep(args.seed, &mut reference),
        _ => sim_rep(w, args.seed, &mut reference),
    });
    let mut r = Report::default();
    end_to_end(&mut r, &reps);
    common_gates(&mut r, w, &reps);
    for x in reps.iter().filter_map(|x| x.wire.as_ref()) {
        wire_gate(&mut r, x.frames, x.failed);
    }
    tally_work(&mut r, &reps);
    println!("{}", info_line(w, args, reps.len(), &reps[0].outcome));
    let each = |f: fn(&Rep) -> f64| {
        reps.iter()
            .map(|x| format!("{:.4}", f(x)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "info run_s_each={} ref_s_each={} setup_s_each={}",
        each(|x| x.run_s),
        each(|x| x.ref_s),
        each(|x| x.setup_s)
    );
    r
}

/// One untraced and one traced run of the same inputs.
struct Pair {
    plain: Rep,
    traced: Outcome,
    trace: Trace,
    /// `wire-roundtrip` only: per codec, encode and decode ns per frame.
    framing: Option<[(f64, f64); 2]>,
}

/// Alternates untraced and traced runs of the simulated inputs (for
/// `wire-roundtrip`, of its capture run, with the codecs split on frames
/// captured once up front).
fn run_traced_mode(args: &Args) -> Report {
    let w = args.workload;
    let mut r = Report::default();
    let frames = (w == Workload::WireRoundtrip).then(|| {
        let (frames, ..) = capture(args.seed);
        let (failed, bytes) = wire::verify(&frames);
        wire_gate(&mut r, frames.len(), failed);
        r.attempted += frames.len() as u64 * wire::CODECS.len() as u64;
        r.failed += failed;
        (frames, bytes)
    });
    let mut reference = Reference::new();
    let pairs = repeat(args.seconds, || {
        let plain = sim_rep(w, args.seed, &mut reference);
        let (traced, trace) = run_traced(sim_inputs(w, args.seed));
        let framing = frames.as_ref().map(|(f, _)| wire::split_ns(f));
        Pair {
            plain,
            traced,
            trace,
            framing,
        }
    });
    layer_metrics(&mut r, &pairs, frames.as_ref());
    r.gate(
        "traced-run-parity",
        pairs.iter().all(|p| parity(&p.traced, &p.plain.outcome)),
    );
    r.gate(
        "layer-times-within-engine-wall",
        pairs.iter().all(|p| p.trace.netsim_self_s() > 0.0),
    );
    r.gate(
        "engine-wall-matches-outer-wall",
        pairs
            .iter()
            .all(|p| p.trace.engine_wall_matches_outer(0.03)),
    );
    let plain: Vec<Rep> = pairs.into_iter().map(|p| p.plain).collect();
    common_gates(&mut r, w, &plain);
    tally_work(&mut r, &plain);
    println!("{}", info_line(w, args, plain.len(), &plain[0].outcome));
    r
}

/// The parity gate: a traced run reproduces the untraced run's simulated
/// outcome exactly (events, procedure counts, PCT quantiles, every
/// counter). It pins the benchmark's mirror of `Cluster::build_with_sim`.
fn parity(traced: &Outcome, plain: &Outcome) -> bool {
    traced == plain
}

/// The per-layer metrics of a set of untraced/traced pairs: host times
/// are medians over the pairs, counts and simulated values come from the
/// first (they repeat exactly).
fn layer_metrics(r: &mut Report, pairs: &[Pair], frames: Option<&(Vec<SysMsg>, [u64; 2])>) {
    let med = |f: &dyn Fn(&Pair) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
    let first = &pairs[0];
    let o = &first.traced;
    let events = o.events as f64;

    r.metric("host.run_s", med(&|p| p.plain.run_s), "s");
    r.metric("reference.kernel_s", med(&|p| p.plain.ref_s), "s");
    r.metric("trafficgen.gen_s", med(&|p| p.plain.host.gen_s), "s");
    r.metric("cluster.build_s", med(&|p| p.plain.host.build_s), "s");
    r.metric("netsim.events", events, "count");
    r.metric(
        "netsim.events_per_s",
        med(&|p| events / (p.plain.host.run_s - p.plain.host.audit_s)),
        "1/s",
    );
    r.metric("netsim.self_s", med(&|p| p.trace.netsim_self_s()), "s");
    r.metric(
        "netsim.allocs_per_event",
        first.trace.allocs as f64 / events,
        "count",
    );
    r.metric("netsim.delivered", o.delivered as f64, "count");
    r.metric("netsim.max_sched_depth", o.max_sched_depth as f64, "count");
    r.metric("netsim.max_queue_depth", o.max_queue_depth as f64, "count");
    r.metric("netsim.fault_drops", o.fault_drops as f64, "count");
    r.metric("netsim.fault_dups", o.fault_dups as f64, "count");
    r.metric("netsim.fault_reorders", o.fault_reorders as f64, "count");
    for layer in Layer::ALL {
        let i = layer as usize;
        let calls = first.trace.layers[i].calls as f64;
        let self_s = med(&|p| p.trace.layers[i].nanos as f64 * 1e-9);
        r.metric(format!("{}.calls", layer.name()), calls, "count");
        r.metric(format!("{}.self_s", layer.name()), self_s, "s");
        if matches!(layer, Layer::UePop | Layer::Cta | Layer::Cpf) {
            r.metric(
                format!("{}.ns_per_call", layer.name()),
                self_s * 1e9 / calls.max(1.0),
                "ns",
            );
        }
    }
    r.metric("uepop.retransmissions", o.retransmissions as f64, "count");
    r.metric("uepop.skipped_busy", o.skipped_busy as f64, "count");
    for (name, s) in [("cta", o.cta), ("cpf", o.cpf)] {
        r.metric(format!("{name}.busy_ms"), s.busy_ns as f64 / 1e6, "ms");
        r.metric(
            format!("{name}.wait_us"),
            s.wait_ns as f64 / 1e3 / s.processed.max(1) as f64,
            "us",
        );
    }
    r.metric("cta.max_log_kb", o.cta_max_log_bytes as f64 / 1024.0, "KB");
    r.metric(
        "cta.failover_replayed",
        o.cta_failover_replayed as f64,
        "count",
    );
    r.metric(
        "cta.resyncs_requested",
        o.cta_resyncs_requested as f64,
        "count",
    );
    r.metric("cpf.syncs_sent", o.cpf_syncs_sent as f64, "count");
    let ratio = if o.cpf_syncs_sent == 0 {
        0.0
    } else {
        o.cpf_syncs_applied as f64 / o.cpf_syncs_sent as f64
    };
    r.metric("cpf.sync_apply_ratio", ratio, "ratio");
    r.metric("cpf.replayed", o.cpf_replayed as f64, "count");
    let audit = &first.plain.audit;
    r.metric("audit.passes", audit.passes as f64, "count");
    r.metric("audit.self_s", med(&|p| p.plain.host.audit_s), "s");
    r.metric("audit.ues_checked", audit.ues_checked as f64, "count");
    r.metric("failover.probe_samples", o.probe_samples as f64, "count");
    r.metric("failover.probe_pct_p50_ms", o.probe_p50_ms, "ms");
    r.metric("failover.probe_pct_p90_ms", o.probe_p90_ms, "ms");
    for (i, (_, codec)) in wire::CODECS.iter().enumerate() {
        let ns =
            |f: &dyn Fn(&(f64, f64)) -> f64| med(&|p| p.framing.map(|s| f(&s[i])).unwrap_or(0.0));
        let bytes = frames.map(|(f, b)| b[i] as f64 / f.len().max(1) as f64);
        r.metric(format!("framing.{codec}.encode_ns"), ns(&|s| s.0), "ns");
        r.metric(format!("framing.{codec}.decode_ns"), ns(&|s| s.1), "ns");
        r.metric(format!("framing.{codec}.bytes"), bytes.unwrap_or(0.0), "B");
    }
    let untraced_run = med(&|p| p.plain.host.run_s - p.plain.host.audit_s);
    let traced_run = med(&|p| p.trace.outer_wall_s);
    r.metric("tracing.overhead_s", traced_run - untraced_run, "s");
    for (i, flow) in FLOWS.iter().enumerate() {
        r.metric(
            format!("msgs.{}", flow.variant),
            first.trace.delivered_by_variant[i] as f64,
            "count",
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut report = if args.trace {
        run_traced_mode(&args)
    } else {
        run_plain(&args)
    };
    let correct = report.finish();
    print!("{}", report.table());
    println!("{}", report.json(correct));
    if !correct {
        std::process::exit(1);
    }
}
