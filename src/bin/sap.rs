//! `sap` — command-line front-end for the storage-alloc library.
//!
//! ```text
//! sap generate --edges 20 --tasks 100 --regime mixed --seed 7 > inst.json
//! sap solve inst.json --algo practical --render
//! sap solve inst.json --algo exact -o solution.json
//! sap validate inst.json solution.json
//! sap ring-solve ring.json
//! sap generate --edges 8 --tasks 6 --seed 1 | tr -d '\n' | sap serve
//! ```

use std::io::Write;
use std::process::ExitCode;

use storage_alloc::net::{BatchPump, ConnTotals};
use storage_alloc::serve::{ServeAlgo, ServeEngine, ServeOptions};

use storage_alloc::io::{
    InstanceDto, JsonDto, RingInstanceDto, RingSolutionDto, SolutionDto,
};
use storage_alloc::prelude::*;
use storage_alloc::sap_algs::{self, ExactConfig, MediumParams};
use storage_alloc::sap_core::{render_solution, render_solution_svg};
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("ring-solve") => cmd_ring_solve(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!(
                "usage: sap <solve|validate|generate|ring-solve|serve> …\n\
                 \n\
                 sap solve <inst.json> [--algo combined|practical|greedy|exact|small|medium|large]\n\
                 \x20         [--deadline-ms N] [--work-units N] [--workers N] [--report]\n\
                 \x20         [--telemetry[=json|tree]] [--timings] [--trace out.json]\n\
                 \x20         [--render] [--svg out.svg] [-o solution.json]\n\
                 sap validate <inst.json> <solution.json>\n\
                 sap generate --edges N --tasks N [--regime small|medium|large|mixed]\n\
                 \x20         [--seed S] [--uniform-capacity C]\n\
                 sap ring-solve <ring.json> [-o solution.json]\n\
                 sap info <inst.json>\n\
                 sap serve [--algo combined|practical] [--workers N] [--solve-workers N]\n\
                 \x20         [--work-units N] [--cache-size N] [--cache-shards N] [--batch N]\n\
                 \x20         [--max-line-bytes N] [--max-inflight-units N] [--tenant-quota N]\n\
                 \x20         [--snapshot-every N] [--snapshot-file f.ndjson]\n\
                 \x20         [--trace out.json] [--obs]\n\
                 \x20         [--telemetry[=json|tree]]   (NDJSON on stdin/stdout)\n\
                 sap serve --listen ADDR[:0] [--max-conns N] [--port-file f]  (NDJSON over TCP;\n\
                 \x20         same solve/cache/admission flags; obs/snapshot/trace are stdin-only)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn read_json<T: JsonDto>(path: &str) -> Result<T, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    T::from_json_str(&data).map_err(|e| format!("{path}: {e}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing instance path")?;
    let dto: InstanceDto = read_json(path)?;
    let instance = dto.to_instance().map_err(|e| e.to_string())?;
    let ids = instance.all_ids();
    let algo = flag_value(args, "--algo").unwrap_or("practical");
    // Budget flags: only the portfolio drivers (combined / practical)
    // thread a cooperative budget; reject them elsewhere rather than
    // silently ignoring them.
    let deadline_ms: Option<u64> = flag_value(args, "--deadline-ms")
        .map(|v| v.parse().map_err(|_| "--deadline-ms must be a number"))
        .transpose()?;
    let work_units: Option<u64> = flag_value(args, "--work-units")
        .map(|v| v.parse().map_err(|_| "--work-units must be a number"))
        .transpose()?;
    let workers: Option<usize> = flag_value(args, "--workers")
        .map(|v| v.parse().map_err(|_| "--workers must be a number (0 = auto)"))
        .transpose()?;
    let want_report = args.iter().any(|a| a == "--report");
    // `--telemetry` takes an inline value (`--telemetry=tree`), unlike the
    // space-separated flags above, so a bare `--telemetry` composes with a
    // following positional argument.
    let telemetry_mode: Option<&str> = args.iter().find_map(|a| {
        a.strip_prefix("--telemetry")
            .map(|rest| rest.strip_prefix('=').unwrap_or(rest))
    });
    match telemetry_mode {
        None | Some("") | Some("json") | Some("tree") => {}
        Some(other) => return Err(format!("--telemetry accepts json or tree (got {other:?})")),
    }
    let want_timings = args.iter().any(|a| a == "--timings");
    let trace_path = flag_value(args, "--trace");
    if (deadline_ms.is_some()
        || work_units.is_some()
        || workers.is_some()
        || want_report
        || telemetry_mode.is_some()
        || trace_path.is_some())
        && !matches!(algo, "combined" | "practical")
    {
        return Err(format!(
            "--deadline-ms/--work-units/--workers/--report/--telemetry/--trace require \
             --algo combined or practical (got {algo:?})"
        ));
    }
    let mut budget = storage_alloc::sap_core::Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline_ms(ms);
    }
    if let Some(units) = work_units {
        budget = budget.with_work_units(units);
    }
    let recorder = (telemetry_mode.is_some() || trace_path.is_some()).then(|| {
        if want_timings {
            storage_alloc::sap_core::Recorder::with_timings()
        } else {
            storage_alloc::sap_core::Recorder::new()
        }
    });
    if let Some(rec) = &recorder {
        budget = budget.with_telemetry(rec.handle());
    }
    let params = sap_algs::SapParams {
        workers: workers.unwrap_or(0),
        ..Default::default()
    };
    let mut report = None;
    let solution = match algo {
        "combined" => {
            let (sol, r) = sap_algs::try_solve(&instance, &ids, &params, &budget);
            report = Some(r);
            sol
        }
        "practical" => {
            let (sol, r) = sap_algs::try_solve_practical(&instance, &ids, &params, &budget);
            report = Some(r);
            sol
        }
        "greedy" => sap_algs::baselines::greedy_sap_best(&instance, &ids),
        // The per-arm algorithms accept no budget flags (checked above),
        // so `budget` is unlimited here and cannot trip.
        "small" => {
            let opts = storage_alloc::lp_solver::SimplexOptions::default();
            sap_algs::try_solve_small(&instance, &ids, SmallAlgo::LpRounding, opts, 0, &budget)
                .map_err(|e| e.to_string())?
                .solution
        }
        "medium" => {
            let params = MediumParams::default();
            sap_algs::try_solve_medium_with_stats(&instance, &ids, params, 0, &budget)
                .map_err(|e| e.to_string())?
                .0
        }
        "large" => sap_algs::try_solve_large(&instance, &ids, &budget)
            .map_err(|e| e.to_string())?
            .ok_or("large-task solver exhausted its budget")?,
        "exact" => {
            if ids.len() > 24 {
                return Err(format!(
                    "exact solver limited to 24 tasks ({} given)",
                    ids.len()
                ));
            }
            sap_algs::solve_exact_sap(&instance, &ids, ExactConfig::default(), &budget)
                .map_err(|e| e.to_string())?
                .optimal()
                .ok_or("exact solver exhausted its state budget")?
        }
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    solution.validate(&instance).map_err(|e| e.to_string())?;
    eprintln!(
        "selected {}/{} tasks, weight {} of {}",
        solution.len(),
        instance.num_tasks(),
        solution.weight(&instance),
        instance.weight_sum()
    );
    if want_report {
        // `--report` implies a driver algo (checked above), so the report
        // is always present here.
        if let Some(r) = &report {
            eprintln!("{}", r.to_json_string());
        }
    }
    if let Some(rec) = &recorder {
        if telemetry_mode.is_some() {
            match telemetry_mode {
                Some("tree") => eprint!("{}", rec.to_tree_string()),
                _ => eprintln!("{}", rec.to_json_string()),
            }
        }
        if let Some(path) = trace_path {
            // Chrome trace-event export of the solve's span tree. The
            // work-unit clock is deterministic; `--timings` switches to
            // wall-clock durations.
            let root = rec.snapshot();
            let clock = if want_timings {
                storage_alloc::sap_core::TraceClock::WallNanos
            } else {
                storage_alloc::sap_core::TraceClock::WorkUnits
            };
            let trace = storage_alloc::sap_core::chrome_trace(&root, clock);
            std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    if args.iter().any(|a| a == "--render") {
        eprintln!("{}", render_solution(&instance, &solution, 24));
    }
    if let Some(path) = flag_value(args, "--svg") {
        std::fs::write(path, render_solution_svg(&instance, &solution, 16.0))
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    let out = SolutionDto::from_solution(&instance, &solution);
    let json = out.to_json_string_pretty();
    match flag_value(args, "-o") {
        Some(path) => std::fs::write(path, json).map_err(|e| e.to_string())?,
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let inst_path = args.first().ok_or("missing instance path")?;
    let sol_path = args.get(1).ok_or("missing solution path")?;
    let inst: InstanceDto = read_json(inst_path)?;
    let instance = inst.to_instance().map_err(|e| e.to_string())?;
    let sol: SolutionDto = read_json(sol_path)?;
    // Verified load: a stored weight that disagrees with the recomputed
    // one is an error, not a silently trusted number.
    let solution = sol.to_solution_verified(&instance)?;
    solution
        .validate(&instance)
        .map_err(|e| format!("INFEASIBLE: {e}"))?;
    println!(
        "feasible: {} tasks, weight {}",
        solution.len(),
        solution.weight(&instance)
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let edges: usize = flag_value(args, "--edges")
        .ok_or("missing --edges")?
        .parse()
        .map_err(|_| "--edges must be a number")?;
    let tasks: usize = flag_value(args, "--tasks")
        .ok_or("missing --tasks")?
        .parse()
        .map_err(|_| "--tasks must be a number")?;
    let seed: u64 = flag_value(args, "--seed").unwrap_or("0").parse().map_err(|_| "--seed")?;
    let regime = match flag_value(args, "--regime").unwrap_or("mixed") {
        "small" => DemandRegime::Small { delta_inv: 16 },
        "medium" => DemandRegime::Medium { delta_inv: 8 },
        "large" => DemandRegime::Large { k: 2 },
        "mixed" => DemandRegime::Mixed,
        other => return Err(format!("unknown regime {other:?}")),
    };
    let profile = match flag_value(args, "--uniform-capacity") {
        Some(c) => CapacityProfile::Uniform(c.parse().map_err(|_| "--uniform-capacity")?),
        None => CapacityProfile::RandomWalk { lo: 64, hi: 1024 },
    };
    let cfg = GenConfig {
        num_edges: edges,
        num_tasks: tasks,
        profile,
        regime,
        max_span: edges.div_ceil(2),
        max_weight: 100,
    };
    let instance = generate(&cfg, seed);
    let dto = InstanceDto::from_instance(&instance);
    println!("{}", dto.to_json_string_pretty());
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing instance path")?;
    let dto: InstanceDto = read_json(path)?;
    let instance = dto.to_instance().map_err(|e| e.to_string())?;
    let s = storage_alloc::sap_core::instance_stats(&instance);
    println!("tasks:          {}", s.tasks);
    println!("edges:          {}", s.edges);
    println!("capacities:     {} .. {}", s.capacity_range.0, s.capacity_range.1);
    println!("demands:        {} .. {}", s.demand_range.0, s.demand_range.1);
    println!("mean span:      {:.2} edges", s.mean_span);
    println!("total weight:   {}", s.total_weight);
    println!("LOAD(J):        {}", s.max_load);
    println!("max congestion: {:.2}x", s.max_congestion);
    let (small, medium, large) = s.regime_counts;
    println!("regimes:        {small} small / {medium} medium / {large} large (delta=1/16, 1/2)");
    println!("strata:         {}", s.strata);
    println!("NBA:            {}", if s.nba { "holds" } else { "violated" });
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut opts = ServeOptions::default();
    if let Some(name) = flag_value(args, "--algo") {
        opts.algo = ServeAlgo::from_name(name)
            .ok_or_else(|| format!("--algo accepts combined or practical (got {name:?})"))?;
    }
    if let Some(v) = flag_value(args, "--workers") {
        opts.workers = v.parse().map_err(|_| "--workers must be a number (0 = auto)")?;
    }
    if let Some(v) = flag_value(args, "--solve-workers") {
        opts.solve_workers =
            v.parse().map_err(|_| "--solve-workers must be a number (0 = auto)")?;
    }
    if let Some(v) = flag_value(args, "--work-units") {
        opts.work_units = Some(v.parse().map_err(|_| "--work-units must be a number")?);
    }
    if let Some(v) = flag_value(args, "--cache-size") {
        opts.cache_size = v.parse().map_err(|_| "--cache-size must be a number (0 = off)")?;
    }
    if let Some(v) = flag_value(args, "--cache-shards") {
        let shards: usize =
            v.parse().map_err(|_| "--cache-shards must be a positive number")?;
        if shards == 0 {
            return Err("--cache-shards must be a positive number".to_string());
        }
        opts.cache_shards = shards;
    }
    if let Some(v) = flag_value(args, "--max-inflight-units") {
        let units: u64 =
            v.parse().map_err(|_| "--max-inflight-units must be a positive number")?;
        if units == 0 {
            return Err("--max-inflight-units must be a positive number".to_string());
        }
        opts.max_inflight_units = Some(units);
    }
    if let Some(v) = flag_value(args, "--tenant-quota") {
        let quota: u64 = v.parse().map_err(|_| "--tenant-quota must be a positive number")?;
        if quota == 0 {
            return Err("--tenant-quota must be a positive number".to_string());
        }
        opts.tenant_quota = Some(quota);
    }
    let batch_size: usize = match flag_value(args, "--batch") {
        Some(v) => {
            let n = v.parse().map_err(|_| "--batch must be a positive number")?;
            if n == 0 {
                return Err("--batch must be a positive number".to_string());
            }
            n
        }
        None => 64,
    };
    let max_line_bytes: usize = match flag_value(args, "--max-line-bytes") {
        Some(v) => {
            let n = v.parse().map_err(|_| "--max-line-bytes must be a positive number")?;
            if n == 0 {
                return Err("--max-line-bytes must be a positive number".to_string());
            }
            n
        }
        None => storage_alloc::net::DEFAULT_MAX_LINE_BYTES,
    };
    let telemetry_mode: Option<&str> = args.iter().find_map(|a| {
        a.strip_prefix("--telemetry")
            .map(|rest| rest.strip_prefix('=').unwrap_or(rest))
    });
    match telemetry_mode {
        None | Some("") | Some("json") | Some("tree") => {}
        Some(other) => return Err(format!("--telemetry accepts json or tree (got {other:?})")),
    }
    // Observability plane: `--snapshot-every N` interleaves snapshot
    // lines into stdout every N batches; `--snapshot-file` mirrors them
    // to a side channel (and alone implies a per-batch cadence without
    // touching stdout); `--trace` writes a Chrome trace of the
    // service-lifetime profile at shutdown; `--obs` dumps the full
    // aggregator export to stderr at shutdown.
    let snapshot_every_flag: Option<u64> = flag_value(args, "--snapshot-every")
        .map(|v| v.parse().map_err(|_| "--snapshot-every must be a positive number"))
        .transpose()?;
    if snapshot_every_flag == Some(0) {
        return Err("--snapshot-every must be a positive number".to_string());
    }
    let snapshot_path = flag_value(args, "--snapshot-file");
    let trace_path = flag_value(args, "--trace");
    let want_obs = args.iter().any(|a| a == "--obs");
    opts.snapshot_every = match snapshot_every_flag {
        Some(n) => n,
        None if snapshot_path.is_some() => 1,
        None => 0,
    };
    opts.obs = want_obs || trace_path.is_some();
    // Network mode: same engine, same flags, but the byte stream comes
    // off TCP connections instead of stdin. The obs plane is stdin-only
    // — per-connection engines would each hold a fragment of the
    // aggregator, so a service-lifetime snapshot/trace would be a lie.
    if let Some(listen) = flag_value(args, "--listen") {
        if snapshot_every_flag.is_some()
            || snapshot_path.is_some()
            || trace_path.is_some()
            || want_obs
        {
            return Err(
                "--listen is incompatible with --snapshot-every/--snapshot-file/--trace/--obs \
                 (the obs plane aggregates one engine; network mode runs one engine per \
                 connection)"
                    .to_string(),
            );
        }
        let mut net = storage_alloc::net::NetOptions {
            listen: listen.to_string(),
            max_line_bytes,
            batch_size,
            ..Default::default()
        };
        if let Some(v) = flag_value(args, "--max-conns") {
            let n: u64 = v.parse().map_err(|_| "--max-conns must be a positive number")?;
            if n == 0 {
                return Err("--max-conns must be a positive number".to_string());
            }
            net.max_conns = Some(n);
        }
        if let Some(path) = flag_value(args, "--port-file") {
            net.port_file = Some(path.to_string());
        }
        let summary = storage_alloc::net::run_server(&opts, &net)?;
        eprintln!("{}", summary.summary_line());
        if telemetry_mode.is_some() {
            let recorder = storage_alloc::sap_core::Recorder::new();
            summary.record_telemetry(&recorder.handle());
            match telemetry_mode {
                Some("tree") => eprint!("{}", recorder.to_tree_string()),
                _ => eprintln!("{}", recorder.to_json_string()),
            }
        }
        return Ok(());
    }
    let snapshots_on_stdout = snapshot_every_flag.is_some();
    let mut snap_file = match snapshot_path {
        Some(path) => {
            Some(std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };

    // Stdin mode runs the same serve loop as every network connection;
    // its flush hook adds the `--snapshot-every` lines. The cadence ticks
    // on processed batches, so a flush of only oversized junk doesn't
    // tick.
    let mut pump = BatchPump::new(ServeEngine::new(opts), batch_size);
    let on_flush = |engine: &mut ServeEngine, lines: &mut Vec<String>| -> std::io::Result<()> {
        if let Some(snapshot) = engine.maybe_snapshot() {
            if let Some(f) = &mut snap_file {
                writeln!(f, "{snapshot}")
                    .map_err(|e| std::io::Error::new(e.kind(), format!("snapshot file: {e}")))?;
            }
            if snapshots_on_stdout {
                lines.push(snapshot);
            }
        }
        Ok(())
    };
    storage_alloc::net::serve_conn(
        std::io::stdin().lock(),
        std::io::stdout().lock(),
        &mut pump,
        max_line_bytes,
        &mut ConnTotals::default(),
        on_flush,
    )
    .map_err(|e| format!("stdio: {e}"))?;
    let mut engine = pump.into_engine();
    eprintln!("{}", engine.summary_line());
    if telemetry_mode.is_some() {
        let recorder = storage_alloc::sap_core::Recorder::new();
        engine.record_telemetry(&recorder.handle());
        match telemetry_mode {
            Some("tree") => eprint!("{}", recorder.to_tree_string()),
            _ => eprintln!("{}", recorder.to_json_string()),
        }
    }
    if let Some(path) = trace_path {
        if let Some(trace) = engine.trace_json() {
            std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    if want_obs {
        if let Some(obs) = engine.obs_json() {
            eprintln!("{obs}");
        }
    }
    Ok(())
}

fn cmd_ring_solve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing ring instance path")?;
    let dto: RingInstanceDto = read_json(path)?;
    let instance = dto.to_instance().map_err(|e| e.to_string())?;
    let (solution, stats) = sap_algs::solve_ring(&instance, &RingParams::default());
    solution.validate(&instance).map_err(|e| e.to_string())?;
    eprintln!(
        "selected {}/{} tasks, weight {} (cut edge {}, path branch {}, knapsack branch {})",
        solution.len(),
        instance.num_tasks(),
        solution.weight(&instance),
        stats.cut_edge,
        stats.path_weight,
        stats.knapsack_weight
    );
    let out = RingSolutionDto::from_solution(&instance, &solution);
    let json = out.to_json_string_pretty();
    match flag_value(args, "-o") {
        Some(path) => std::fs::write(path, json).map_err(|e| e.to_string())?,
        None => println!("{json}"),
    }
    Ok(())
}
