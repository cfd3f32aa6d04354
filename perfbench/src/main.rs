//! The repository benchmark: three serving traffic mixes and one
//! high-dimensional training workload, measured end to end (untraced
//! runs) or layer by layer (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_small --seed 1 --seconds 20 --trace 0
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Every run first builds its inputs from `--seed`, deploys them and
//! passes a correctness gate. The last line of standard output is one
//! JSON object with the run's metrics; the line before it records the
//! host, the seed, the sample counts and any correctness problem.

mod client;
mod host;
mod layers;
mod model;
mod serve;
mod stats;

use host::{cpu_model, cpu_ticks, filesystem_type, peak_rss_mb, steal_share};
use layers::Metric;
use model::{train, Kind};
use serve::{closed_loop, deploy, gate, plans, Deployment, LoopStats, ServeSpec};
use stats::{median, quartiles, supported_percentile};
use std::path::Path;
use std::time::{Duration, Instant};

/// `P3GM_THREADS` for every kernel; the server also runs two executors.
const THREADS: &str = "2";
/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;
/// Steal share under which a round counts as quiet.
const QUIET_STEAL: f64 = 0.05;
/// Full fits timed in every round of an untraced run (at least).
const FITS_PER_ROUND: usize = 3;
/// Share of a traced run spent in the closed loop; the rest times layers.
const TRACED_LOOP_SHARE: f64 = 0.3;
/// Layers timed in a traced run, which share the rest of it evenly.
const TIMED_LAYERS: f64 = 18.0;
/// Share of each round of an untraced `train_highdim` run spent fitting;
/// the rest serves the trained snapshot.
const FIT_SHARE: f64 = 0.6;

struct Workload {
    serve: ServeSpec,
    /// Full set-ups per untraced run; `setup_s` is their median.
    setups: usize,
    /// Rounds per untraced run (see [`untraced`]).
    rounds: usize,
    /// Whether the timed part of the run is mostly repeated full fits.
    trains: bool,
}

fn workload(name: &str) -> Result<Workload, String> {
    let small = ServeSpec {
        kind: Kind::Adult,
        tenants: 1,
        distinct_models: 1,
        rows: 64,
        csv: false,
        connections: 1,
        list_share: 0.0,
        resident_models: None,
        ops_per_connection: 64,
    };
    Ok(match name {
        "serve_small" => Workload {
            serve: small,
            setups: 5,
            rounds: 10,
            trains: false,
        },
        "serve_stream" => Workload {
            serve: ServeSpec {
                rows: 4096,
                csv: true,
                ops_per_connection: 8,
                ..small
            },
            setups: 5,
            rounds: 5,
            trains: false,
        },
        "serve_tenants" => Workload {
            serve: ServeSpec {
                tenants: 64,
                distinct_models: 8,
                csv: true,
                connections: 2,
                list_share: 0.2,
                resident_models: Some(12),
                ops_per_connection: 256,
                ..small
            },
            setups: 3,
            rounds: 10,
            trains: false,
        },
        "train_highdim" => Workload {
            serve: ServeSpec {
                kind: Kind::Mnist,
                ops_per_connection: 32,
                ..small
            },
            setups: 3,
            rounds: 5,
            trains: true,
        },
        other => return Err(format!("unknown workload {other:?}")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Context printed on the line before the result: `(key, JSON value)`.
    notes: Vec<(&'static str, String)>,
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let spec = workload(&args.workload)?;
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let fs = filesystem_type(work)?;
    // Every traced run times the fsync'd ledger charge in this directory.
    if matches!(fs.as_str(), "tmpfs" | "ramfs") {
        return Err(format!(
            "the ledger directory is on {fs}, where fsync is free; run from a checkout on a disk"
        ));
    }

    let dep = deploy(&spec.serve, args.seed, &work.join("setup-0"))?;
    let result = if args.trace {
        traced(args, &spec, &dep)
    } else {
        untraced(args, &spec, &dep, work, vec![dep.setup_s])
    };
    dep.server.shutdown();
    let mut outcome = result?;
    outcome.notes.push(("ledger_fs", quote(&fs)));
    Ok(outcome)
}

/// The gate every run passes before anything is timed. Returns the
/// connection plans it checked and the snapshot bytes every timed fit
/// (from the workload seed) must reproduce.
fn checked(
    args: &Args,
    spec: &Workload,
    dep: &Deployment,
) -> Result<(Vec<serve::Plan>, Vec<u8>), String> {
    let plans = plans(&spec.serve, dep, args.seed);
    gate(dep, &plans)?;
    let set = &dep.sets[0];
    let two = train(set, args.seed)?;
    let one = p3gm_parallel::with_threads(1, || train(set, args.seed))?;
    if one.bytes != two.bytes {
        return Err(format!(
            "snapshot bytes differ between 1 and {THREADS} threads"
        ));
    }
    Ok((plans, two.bytes))
}

fn traced(args: &Args, spec: &Workload, dep: &Deployment) -> Result<Outcome, String> {
    let (plans, _) = checked(args, spec, dep)?;
    let seconds = Duration::from_secs_f64(args.seconds);
    let traced = closed_loop(dep, &plans, seconds.mul_f64(TRACED_LOOP_SHARE))?;
    let mut problems = traced.cross_check();
    let budget = seconds.mul_f64((1.0 - TRACED_LOOP_SHARE) / TIMED_LAYERS);
    let mut metrics = layers::serve_layers(&spec.serve, dep, &plans[0], &traced, budget)?;
    metrics.extend(layers::train_layers(&dep.sets[0], args.seed, budget)?);
    let report = &dep.models[0].report;
    metrics.push(("train.dpsgd_steps", report.dp_sgd_steps as f64, "count"));
    metrics.push(("train.em_iterations", report.em_iterations as f64, "count"));
    if let Some(&(_, unattributed, _)) = metrics.iter().find(|m| m.0 == "serve.unattributed_us") {
        if unattributed < 0.0 {
            problems.push(format!(
                "request-path layers sum past the traced p50 by {} us",
                -unattributed
            ));
        }
    }
    Ok(Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        problems,
        metrics,
        notes: loop_notes(&traced),
    })
}

/// An untraced run: `rounds` equal rounds spread over `--seconds`, each
/// fitting, sometimes setting up once more, then serving one closed-loop
/// window. On a shared virtual machine the hypervisor steals CPU time in
/// bursts, and a stall of either vCPU stretches every hand-off between
/// threads, so metrics come from the quarter of the rounds with the
/// least stolen time, as medians over those rounds' windows and fits.
/// While those rounds are not all quiet, the run adds rounds, up to half
/// as many again.
fn untraced(
    args: &Args,
    spec: &Workload,
    dep: &Deployment,
    work: &Path,
    mut setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    let (plans, fitted) = checked(args, spec, dep)?;
    let rounds = spec.rounds;
    let round_time = Duration::from_secs_f64(args.seconds / rounds as f64);
    let fit_time = if spec.trains {
        round_time.mul_f64(FIT_SHARE)
    } else {
        Duration::ZERO
    };
    let (mut steals, mut windows, mut round_fits) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fits_run, mut fit_failures) = (0u64, 0u64);
    let kept_rounds = rounds.div_ceil(4);
    let mut kept: Vec<usize> = Vec::new();
    let mut r = 0;
    while r < rounds + rounds / 2 {
        // Set-ups land on evenly spaced base rounds; round 0's is the
        // serving deployment itself.
        if r > 0 && r < rounds && (r * spec.setups) % rounds < spec.setups {
            let extra = deploy(&spec.serve, args.seed, &work.join(format!("setup-{r}")))?;
            setup_s.push(extra.setup_s);
            extra.server.shutdown();
        }
        let ticks = cpu_ticks()?;
        let start = Instant::now();
        let mut fits = Vec::new();
        while fits.len() < FITS_PER_ROUND || start.elapsed() < fit_time {
            fits_run += 1;
            match train(&dep.sets[0], args.seed) {
                // Every fit of the same set and seed must train the same bytes.
                Ok(trained) if trained.bytes == fitted => fits.push(trained.fit_s),
                _ => {
                    fit_failures += 1;
                    break;
                }
            }
        }
        windows.push(closed_loop(
            dep,
            &plans,
            round_time.saturating_sub(fit_time),
        )?);
        steals.push(steal_share(ticks, cpu_ticks()?));
        round_fits.push(fits);
        r += 1;
        if r >= rounds {
            kept = (0..r).collect();
            kept.sort_by(|&a, &b| steals[a].total_cmp(&steals[b]));
            kept.truncate(kept_rounds);
            if kept.iter().all(|&k| steals[k] <= QUIET_STEAL) {
                break;
            }
        }
    }

    let mut problems: Vec<String> = windows.iter().flat_map(LoopStats::cross_check).collect();
    if fit_failures > 0 {
        problems.push("a fit failed or trained different bytes".to_string());
    }
    let per_window = |f: &dyn Fn(&LoopStats) -> Option<f64>, what: &str| {
        let values: Option<Vec<f64>> = kept.iter().map(|&r| f(&windows[r])).collect();
        values
            .as_deref()
            .and_then(median)
            .ok_or(format!("a window has too few {what} samples"))
    };
    let fits: Vec<f64> = kept
        .iter()
        .flat_map(|&r| round_fits[r].iter().copied())
        .collect();
    let kept_windows = LoopStats::merged(&kept.iter().map(|&r| &windows[r]).collect::<Vec<_>>());
    let all = LoopStats::merged(&windows.iter().collect::<Vec<_>>());
    let mut notes = loop_notes(&all);
    notes.push(("rounds", windows.len().to_string()));
    notes.push(("rounds_kept", kept.len().to_string()));
    notes.push((
        "steal_share",
        list(steals.iter().map(|s| format!("{s:.3}"))),
    ));
    notes.push((
        "round_throughput_rps",
        list(
            windows
                .iter()
                .map(|w| format!("{:.1}", w.ok as f64 / w.elapsed_s)),
        ),
    ));
    notes.push(("fits_kept", fits.len().to_string()));
    Ok(Outcome {
        attempted: all.attempted + fits_run,
        failed: all.failed + fit_failures,
        problems,
        metrics: vec![
            ("setup_s", median(&setup_s).ok_or("no set-up ran")?, "s"),
            (
                "throughput_rps",
                per_window(&|w| Some(w.ok as f64 / w.elapsed_s), "completed")?,
                "1/s",
            ),
            (
                "latency_p50_us",
                per_window(&|w| median(&w.latencies_us), "latency")?,
                "us",
            ),
            // Pooled over the kept rounds, so a short window cannot leave
            // too few requests beyond it.
            (
                "latency_p90_us",
                supported_percentile(&kept_windows.latencies_us, 0.9, MIN_BEYOND).ok_or(
                    format!(
                        "{} requests leave fewer than {MIN_BEYOND} beyond p90",
                        kept_windows.latencies_us.len()
                    ),
                )?,
                "us",
            ),
            (
                "ttfb_p50_us",
                per_window(&|w| median(&w.ttfbs_us), "first-byte")?,
                "us",
            ),
            ("fit_s", median(&fits).ok_or("no fit ran")?, "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
        notes,
    })
}

/// Sample count, quartiles and failure share of a closed loop.
fn loop_notes(stats: &LoopStats) -> Vec<(&'static str, String)> {
    let quartiles = quartiles(&stats.latencies_us).map_or("null".to_string(), |(q1, q3)| {
        list([format!("{q1:.1}"), format!("{q3:.1}")])
    });
    vec![
        ("requests", stats.attempted.to_string()),
        (
            "mean_body_bytes",
            (stats.body_bytes / stats.ok.max(1)).to_string(),
        ),
        ("latency_quartiles_us", quartiles),
        (
            "failed_frac",
            (stats.failed as f64 / stats.attempted.max(1) as f64).to_string(),
        ),
    ]
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of already-rendered values.
fn list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

fn json_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    // Pinned before any thread starts; the kernels read it on every call.
    std::env::set_var("P3GM_THREADS", THREADS);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite: {value}");
        std::process::exit(1);
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: {}: {problem}", args.workload);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut context = vec![
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", args.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", quote(&cpu_model())),
        ("p3gm_threads", quote(THREADS)),
    ];
    context.extend(outcome.notes);
    context.push(("problems", list(outcome.problems.iter().map(|p| quote(p)))));
    println!("{}", json_object(&context));

    let metrics: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                json_object(&[("value", value.to_string()), ("unit", quote(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        json_object(&[
            (
                "correct",
                (outcome.problems.is_empty() && outcome.failed == 0).to_string()
            ),
            ("attempted", outcome.attempted.max(1).to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", json_object(&metrics)),
        ])
    );
}
