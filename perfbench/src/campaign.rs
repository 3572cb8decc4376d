//! `campaign-e10`: a closed loop with one client submitting the E10
//! recovery sweep one job at a time to an in-process `tta-campaignd`
//! (2 workers, cold state dir), then resubmitting every job against
//! the warm cache. `JobSpec.seed` is the benchmark seed.

use crate::measure::{median, metric, repeat_for, secs, tail, timed, Gate, Metric};
use crate::trace::{span, Tracer};
use crate::{Ctx, EndToEnd, Traced};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::time::{Duration, Instant};
use tta_campaignd::cache::Cache;
use tta_campaignd::client::{Client, SubmitResult};
use tta_campaignd::journal::{ChunkRecord, Journal, CHUNK_SIZE};
use tta_campaignd::runner::{self, RunConfig, RunHandles};
use tta_campaignd::server::{Server, ServerConfig, ServerHandle};
use tta_campaignd::spec::{JobSpec, ResolvedJob, ScenarioSource};
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{Campaign, RecoveryReport, Scenario, Topology, TrialAggregate};

pub const THREADS: usize = 2;
const FAULT_DURATION: u64 = 60;

/// The E10 sweep (or its CI smoke subset) as job specs, in
/// config × scenario × policy order.
pub fn specs(ctx: &Ctx) -> Vec<JobSpec> {
    use CouplerAuthority::{FullShifting, Passive, SmallShifting, TimeWindows};
    let never = RestartPolicy::Never;
    let watchdog = RestartPolicy::Watchdog { silence_slots: 8 };
    let (configs, scenarios, policies, trials, slots) = if ctx.smoke {
        (
            vec![(Topology::Star, Passive), (Topology::Star, FullShifting)],
            vec![Scenario::SosSender, Scenario::CouplerReplay],
            vec![never, watchdog],
            12,
            300,
        )
    } else {
        (
            vec![
                (Topology::Bus, Passive),
                (Topology::Star, Passive),
                (Topology::Star, TimeWindows),
                (Topology::Star, SmallShifting),
                (Topology::Star, FullShifting),
            ],
            vec![
                Scenario::SosSender,
                Scenario::CouplerSilence,
                Scenario::CouplerReplay,
            ],
            vec![
                never,
                RestartPolicy::Immediate,
                RestartPolicy::BoundedRetry {
                    max_restarts: 3,
                    backoff_slots: 4,
                },
                watchdog,
            ],
            24,
            400,
        )
    };
    let mut out = Vec::new();
    for &(topology, authority) in &configs {
        for &scenario in &scenarios {
            for &policy in &policies {
                out.push(JobSpec {
                    topology,
                    authority,
                    policy,
                    trials,
                    slots,
                    seed: ctx.seed,
                    fault_duration: Some(FAULT_DURATION),
                    ..JobSpec::new(ScenarioSource::Builtin(scenario))
                });
            }
        }
    }
    out
}

fn scenario_of(spec: &JobSpec) -> Scenario {
    match spec.scenario {
        ScenarioSource::Builtin(s) => s,
        ScenarioSource::File(_) => unreachable!("the sweep uses built-in scenarios only"),
    }
}

/// The inline campaign equivalent to `spec`.
fn campaign_of(spec: &JobSpec) -> Campaign {
    Campaign::new(spec.nodes, spec.topology, spec.authority)
        .trials(spec.trials)
        .slots(spec.slots)
        .seed(spec.seed)
        .restart_policy(spec.policy)
        .fault_duration(FAULT_DURATION)
        .threads(THREADS)
}

fn report_of(spec: &JobSpec, aggregate: &TrialAggregate) -> RecoveryReport {
    RecoveryReport::from_aggregate(
        scenario_of(spec),
        spec.topology,
        spec.authority,
        spec.policy,
        aggregate,
    )
}

/// The reference reports: inline `Campaign::run_recovery`, no service.
fn inline_reports(specs: &[JobSpec], tracer: Option<&Tracer>) -> Vec<RecoveryReport> {
    specs
        .iter()
        .map(|spec| {
            span(tracer, "sim", "tta_sim::Campaign::run_recovery", || {
                campaign_of(spec).run_recovery(scenario_of(spec))
            })
        })
        .collect()
}

/// A daemon on a fresh state directory under `.bench_out`.
struct Daemon {
    handle: Option<ServerHandle>,
    client: Client,
    dir: PathBuf,
}

impl Daemon {
    fn spawn(dir: PathBuf) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            // Relative, so the socket path stays short wherever the
            // checkout lives.
            socket: dir.join("d.sock"),
            workers: THREADS,
            ..ServerConfig::at(&dir)
        };
        let handle = Server::spawn(config)?;
        let client = Client::new(handle.socket());
        Ok(Daemon {
            handle: Some(handle),
            client,
            dir,
        })
    }

    fn wait_ready(self) -> std::io::Result<Daemon> {
        self.client
            .wait_ready(Duration::from_secs(10))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(self)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn state_dir(tag: &str) -> PathBuf {
    Path::new(".bench_out").join(format!("campaign-{}-{tag}", std::process::id()))
}

/// One submitted job: its stream lines, result and latency.
struct Job {
    lines: Vec<String>,
    result: Option<SubmitResult>,
    ms: f64,
}

fn submit(client: &Client, spec: &JobSpec, tracer: Option<&Tracer>, label: &str) -> Job {
    let mut lines = Vec::new();
    let (result, t) = timed(|| {
        span(
            tracer,
            "campaignd",
            format!("tta_campaignd::Client::submit {label}"),
            || client.submit(spec, Some(THREADS), &mut |l| lines.push(l.to_string())),
        )
    });
    Job {
        lines,
        result: result.ok(),
        ms: t * 1e3,
    }
}

/// What one cold + warm pass measured.
struct Pass {
    cold_s: f64,
    warm_s: f64,
    trials: u64,
    warm_hits: u64,
    job_ms: Vec<f64>,
    /// Cold-pass trial results, per job.
    cold: Vec<Vec<tta_sim::TrialResult>>,
}

fn pass(
    specs: &[JobSpec],
    reference: &[RecoveryReport],
    gate: &mut Gate,
    tracer: Option<&Tracer>,
    tag: &str,
) -> Pass {
    let daemon = span(tracer, "campaignd", "tta_campaignd::Server::spawn", || {
        Daemon::spawn(state_dir(tag))
    });
    let daemon = match daemon.and_then(Daemon::wait_ready) {
        Ok(d) => d,
        Err(e) => {
            gate.check(false, || format!("campaign daemon did not start: {e}"));
            return Pass {
                cold_s: 0.0,
                warm_s: 0.0,
                trials: 0,
                warm_hits: 0,
                job_ms: Vec::new(),
                cold: Vec::new(),
            };
        }
    };
    let start = Instant::now();
    let cold: Vec<Job> = specs
        .iter()
        .map(|s| submit(&daemon.client, s, tracer, "cold"))
        .collect();
    let cold_s = secs(start);
    // Journals answer an identical resubmit on their own; removing them
    // sends the warm pass through the trial cache instead.
    let _ = std::fs::remove_dir_all(daemon.dir.join("jobs"));
    let start = Instant::now();
    let warm: Vec<Job> = specs
        .iter()
        .map(|s| submit(&daemon.client, s, tracer, "warm"))
        .collect();
    let warm_s = secs(start);
    drop(daemon);

    let mut trials = 0u64;
    let mut warm_hits = 0u64;
    let mut cold_trials = Vec::new();
    for (i, ((c, w), want)) in cold.iter().zip(&warm).zip(reference).enumerate() {
        let (Some(cr), Some(wr)) = (&c.result, &w.result) else {
            gate.check(false, || format!("campaign job {i}: submit failed"));
            continue;
        };
        gate.eq(
            &format!("campaign job {i} aggregate vs inline run_recovery"),
            &report_of(&specs[i], &cr.aggregate),
            want,
        );
        gate.check(c.lines == w.lines, || {
            format!("campaign job {i}: warm stream differs from cold")
        });
        gate.eq(
            &format!("campaign job {i} cold cache hits"),
            cr.stats.cache_hits,
            0,
        );
        gate.eq(
            &format!("campaign job {i} warm cache hits"),
            wr.stats.cache_hits,
            wr.trials.len() as u64,
        );
        trials += cr.trials.len() as u64;
        warm_hits += wr.stats.cache_hits;
        cold_trials.push(cr.trials.clone());
    }
    Pass {
        cold_s,
        warm_s,
        trials,
        warm_hits,
        job_ms: cold.iter().map(|j| j.ms).collect(),
        cold: cold_trials,
    }
}

pub fn measure(ctx: &Ctx, gate: &mut Gate) -> EndToEnd {
    let specs = specs(ctx);
    let reference = inline_reports(&specs, None);
    // Set-up is a daemon spawn on a fresh state dir: directories, cache,
    // socket and serve thread. That the daemon then answers a ping is
    // gated but not timed: the serve loop polls accept every 5 ms, so
    // the wait is ~0 or ~5 ms by a scheduling race, not set-up work.
    let mut started = Vec::new();
    let run = repeat_for(
        ctx.seconds,
        || {
            let tag = format!("setup{}", started.len());
            let (daemon, t) = timed(|| Daemon::spawn(state_dir(&tag)));
            started.push(daemon.and_then(Daemon::wait_ready).is_ok());
            t
        },
        |p: &Pass| p.cold_s + p.warm_s,
        |n| pass(&specs, &reference, gate, None, &n.to_string()),
    );
    for ok in started {
        gate.check(ok, || "campaign daemon did not start".to_string());
    }
    let passes = run.passes;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let trials_per_s = per_pass(&|p| p.trials as f64 / p.cold_s);
    let warm_trials_per_s = per_pass(&|p| p.trials as f64 / p.warm_s);
    let job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_ms.iter().copied())
        .collect();
    let (tail_pct, tail_ms) = tail(&job_ms);
    EndToEnd {
        peak_rss_mb: run.peak_rss_mb,
        setups: run.setups,
        pass_walls: passes.iter().map(|p| p.cold_s + p.warm_s).collect(),
        work_per_s: trials_per_s,
        named: vec![
            metric("trials_per_s", trials_per_s, "1/s"),
            metric("warm_trials_per_s", warm_trials_per_s, "1/s"),
            metric("job_p50_ms", median(&job_ms), "ms"),
            metric(
                format!("job_tail_ms (p{tail_pct} of {})", job_ms.len()),
                tail_ms,
                "ms",
            ),
        ],
        op_ms: job_ms,
    }
}

pub fn traced(ctx: &Ctx, tracer: &Tracer, gate: &mut Gate) -> Traced {
    let specs = specs(ctx);
    let (reference, inline_s) = timed(|| {
        tracer.span("bench", "probe inline run_recovery", || {
            inline_reports(&specs, Some(tracer))
        })
    });
    // Warm-up first, so the untraced pass is not the process's first.
    pass(&specs, &reference, gate, None, "warmup");
    let untraced = pass(&specs, &reference, gate, None, "untraced");
    let p = tracer.span("bench", "pass campaign", || {
        pass(&specs, &reference, gate, Some(tracer), "traced")
    });
    let traced_wall = p.cold_s + p.warm_s;

    let mut layer = vec![
        metric("campaignd.service_overhead", p.cold_s / inline_s, "x"),
        metric(
            "campaignd.cache_hit_ratio",
            p.warm_hits as f64 / p.trials.max(1) as f64,
            "ratio",
        ),
        metric(
            "campaignd.warm_trials_per_s",
            p.trials as f64 / p.warm_s,
            "1/s",
        ),
        metric("campaignd.job_p50_ms", median(&p.job_ms), "ms"),
        metric("campaignd.job_tail_ms", tail(&p.job_ms).1, "ms"),
    ];
    let probe = tracer.span("bench", "probe runner/journal/cache", || {
        service_probe(&specs, &reference, gate, tracer)
    });
    layer.push(metric("campaignd.runner_s", probe.runner_s, "s"));
    layer.push(metric(
        "campaignd.protocol_s",
        p.cold_s - probe.runner_s,
        "s",
    ));
    layer.extend(probe.layer);
    layer.extend(tracer.span("bench", "probe sim trials", || {
        sim_probe(&specs, &p.cold, gate, tracer)
    }));
    Traced {
        untraced_wall: untraced.cold_s + untraced.warm_s,
        traced_wall,
        layer,
    }
}

struct ServiceProbe {
    runner_s: f64,
    layer: Vec<Metric>,
}

/// Calls `runner::run` directly (no socket) for every job on a cold
/// state dir, then times `Journal::append` of the same chunks and
/// `Cache::lookup` of every trial key.
fn service_probe(
    specs: &[JobSpec],
    reference: &[RecoveryReport],
    gate: &mut Gate,
    tracer: &Tracer,
) -> ServiceProbe {
    let dir = state_dir("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| -> std::io::Result<ServiceProbe> {
        let cache = Cache::open(&dir.join("cache"))?;
        let appends = AtomicU64::new(0);
        let mut runner_s = 0.0;
        let mut jobs = Vec::new();
        for (i, (spec, want)) in specs.iter().zip(reference).enumerate() {
            let job = ResolvedJob::resolve(spec.clone(), Path::new("."))
                .map_err(|e| std::io::Error::other(e.0))?;
            let mut journal = Journal::open(
                &dir.join("jobs").join(format!("{}.journal", job.job_id())),
                job.job_hash,
            )?;
            // A run latches its cancel flag when it completes: one per job.
            let cancel = AtomicBool::new(false);
            let handles = RunHandles {
                appends_so_far: &appends,
                cancel: &cancel,
                progress: None,
            };
            let (outcome, t) = timed(|| {
                tracer.span("campaignd", "tta_campaignd::runner::run", || {
                    runner::run(
                        &job,
                        &mut journal,
                        &cache,
                        &RunConfig::with_workers(THREADS),
                        handles,
                        &mut |_| {},
                    )
                })
            });
            runner_s += t;
            let outcome = outcome?;
            gate.eq(
                &format!("runner job {i} aggregate vs inline run_recovery"),
                &report_of(spec, &outcome.aggregate),
                want,
            );
            jobs.push((job, outcome.verdicts));
        }

        let mut append_us = Vec::new();
        for (job, verdicts) in &jobs {
            let path = dir.join("replay").join(format!("{}.journal", job.job_id()));
            let mut journal = Journal::open(&path, job.job_hash)?;
            for (chunk, trials) in verdicts.chunks(CHUNK_SIZE as usize).enumerate() {
                let record = ChunkRecord {
                    chunk: chunk as u32,
                    trials: trials.to_vec(),
                };
                let (r, t) = timed(|| {
                    tracer.span("campaignd", "tta_campaignd::Journal::append", || {
                        journal.append(&record)
                    })
                });
                r?;
                append_us.push(t * 1e6);
            }
        }

        let mut lookup_us = Vec::new();
        tracer.span(
            "campaignd",
            "tta_campaignd::Cache::lookup (every trial key)",
            || {
                for (job, verdicts) in &jobs {
                    for verdict in verdicts {
                        let index = verdict.index();
                        let key = job.trial_key(job.exec.trial_seed(index));
                        let (found, t) = timed(|| cache.lookup(key, index));
                        lookup_us.push(t * 1e6);
                        gate.check(found.as_ref() == verdict.completed(), || {
                            format!(
                                "cache entry for trial {index} of job {} differs from the run",
                                job.job_id()
                            )
                        });
                    }
                }
            },
        );
        Ok(ServiceProbe {
            runner_s,
            layer: vec![
                metric("campaignd.journal_appends", append_us.len() as f64, "count"),
                metric("campaignd.journal_append_p50_us", median(&append_us), "us"),
                metric("campaignd.cache_lookup_p50_us", median(&lookup_us), "us"),
            ],
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result.unwrap_or_else(|e| {
        gate.check(false, || format!("campaign service probe failed: {e}"));
        ServiceProbe {
            runner_s: 0.0,
            layer: Vec::new(),
        }
    })
}

/// Replays every job's trials through `Campaign::run_trial` on one
/// thread, timing each, and checks them against the daemon's stream.
fn sim_probe(
    specs: &[JobSpec],
    cold: &[Vec<tta_sim::TrialResult>],
    gate: &mut Gate,
    tracer: &Tracer,
) -> Vec<Metric> {
    let mut trial_us = Vec::new();
    let mut slots = 0u64;
    for (i, (spec, streamed)) in specs.iter().zip(cold).enumerate() {
        let campaign = campaign_of(spec);
        let scenario = scenario_of(spec);
        let replayed: Vec<_> = tracer.span("sim", "tta_sim::Campaign::run_trial (job)", || {
            (0..streamed.len() as u32)
                .map(|index| {
                    let (trial, t) = timed(|| campaign.run_trial(scenario, index));
                    trial_us.push(t * 1e6);
                    trial
                })
                .collect()
        });
        slots += spec.slots * replayed.len() as u64;
        gate.check(&replayed == streamed, || {
            format!("campaign job {i}: replayed trials differ from the stream")
        });
    }
    let busy_s = trial_us.iter().sum::<f64>() / 1e6;
    vec![
        metric("sim.trial_busy_s", busy_s, "s"),
        metric("sim.trial_p50_us", median(&trial_us), "us"),
        metric("sim.slots_per_s", slots as f64 / busy_s.max(1e-9), "1/s"),
    ]
}
