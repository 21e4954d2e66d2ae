//! The `specweb` command-line tool: generate workloads, analyze logs,
//! and run both of the paper's protocols from a shell.
//!
//! ```text
//! specweb generate  --preset bu --seed 42 --out access.log
//! specweb analyze   --log access.log
//! specweb speculate --log access.log --tp 0.3
//! specweb speculate --preset bu --seed 42 --tp 0.3 --max-size 29K
//! specweb disseminate --preset bu --seed 42 --fraction 0.10 --proxies 9
//! ```
//!
//! Synthetic presets (`bu`, `media`, `cluster`) generate in-memory; the
//! `--log` forms parse + clean a CLF-style log and import it.

use std::process::ExitCode;

use specweb::dissem::simulate::{DisseminationConfig, DisseminationSim};
use specweb::prelude::*;
use specweb::trace::cleaning::{clean, CleaningConfig};
use specweb::trace::import::{trace_from_records, ImportConfig};
use specweb::trace::logfmt;

fn main() -> ExitCode {
    // Progress/diagnostic lines (level Info) print by default for the
    // interactive binary; SPECWEB_LOG still overrides either way.
    specweb::core::obs::set_default_level(specweb::core::obs::Level::Info);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("specweb: {msg}\n");
            usage();
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "analyze" => cmd_analyze(&opts),
        "speculate" => cmd_speculate(&opts),
        "disseminate" => cmd_disseminate(&opts),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(CoreError::invalid_config(
            "command",
            format!("unknown command `{other}`"),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            specweb::core::log!(Error, "specweb", "error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: specweb <command> [options]\n\
         \n\
         commands:\n\
         \x20 generate     write a synthetic workload as a CLF-style log\n\
         \x20 analyze      clean a log, classify documents, fit the popularity model\n\
         \x20 speculate    run the speculative-service simulator (§3)\n\
         \x20 disseminate  run the dissemination simulator (§2)\n\
         \n\
         options:\n\
         \x20 --preset bu|media|cluster   synthetic workload preset (default bu)\n\
         \x20 --seed N                    master seed (default 1996)\n\
         \x20 --log FILE                  drive from a CLF-style log instead\n\
         \x20 --out FILE                  output file (generate)\n\
         \x20 --days N                    trace length in days (generate)\n\
         \x20 --tp X                      speculation threshold T_p (default 0.3)\n\
         \x20 --max-size BYTES[K|M]       MaxSize cap (default ∞)\n\
         \x20 --session-timeout SECS      client cache session timeout (default ∞)\n\
         \x20 --cooperative               enable cooperative clients\n\
         \x20 --fraction X                fraction of bytes to disseminate (default 0.10)\n\
         \x20 --proxies N                 number of proxies (default 4)\n"
    );
}

/// Every option, checked where it enters (no clap in the offline
/// dependency set): commands read fields, never raw text.
struct Opts {
    preset: String,
    seed: u64,
    log: Option<String>,
    out: Option<String>,
    days: Option<u64>,
    tp: f64,
    max_size: Option<Bytes>,
    session_timeout: Option<u64>,
    cooperative: bool,
    fraction: f64,
    proxies: usize,
}

impl Opts {
    /// Parses the options after the command. An unknown or repeated
    /// flag, a missing value and a value that does not parse are all
    /// errors: a typo must not run with a default in its place.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            preset: "bu".to_string(),
            seed: 1996,
            log: None,
            out: None,
            days: None,
            tp: 0.3,
            max_size: None,
            session_timeout: None,
            cooperative: false,
            fraction: 0.10,
            proxies: 4,
        };
        let mut seen: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if seen.contains(&flag.as_str()) {
                return Err(format!("`{flag}` given twice"));
            }
            seen.push(flag);
            let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
            match flag.as_str() {
                "--preset" => opts.preset = value()?.clone(),
                "--seed" => opts.seed = number(flag, value()?)?,
                "--log" => opts.log = Some(value()?.clone()),
                "--out" => opts.out = Some(value()?.clone()),
                "--days" => opts.days = Some(number(flag, value()?)?),
                "--tp" => opts.tp = number(flag, value()?)?,
                "--max-size" => opts.max_size = Some(bytes(flag, value()?)?),
                "--session-timeout" => opts.session_timeout = Some(number(flag, value()?)?),
                "--cooperative" => opts.cooperative = true,
                "--fraction" => opts.fraction = number(flag, value()?)?,
                "--proxies" => opts.proxies = number(flag, value()?)?,
                _ => return Err(format!("unknown option `{flag}`")),
            }
        }
        Ok(opts)
    }
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("`{flag} {raw}`: not a valid value"))
}

/// `BYTES[K|M]`, overflow included in what does not parse.
fn bytes(flag: &str, raw: &str) -> Result<Bytes, String> {
    let (num, mult) = match raw.chars().last() {
        Some('K') | Some('k') => (&raw[..raw.len() - 1], 1024u64),
        Some('M') | Some('m') => (&raw[..raw.len() - 1], 1024 * 1024),
        _ => (raw, 1),
    };
    number::<u64>(flag, num)?
        .checked_mul(mult)
        .map(Bytes::new)
        .ok_or(format!("`{flag} {raw}`: too large"))
}

fn topology() -> Topology {
    Topology::balanced(3, 3, 6)
}

fn build_trace(opts: &Opts) -> Result<Trace, CoreError> {
    if let Some(path) = &opts.log {
        let text = std::fs::read_to_string(path)?;
        let (records, bad) = logfmt::parse_log(&text);
        if !bad.is_empty() {
            specweb::core::log!(Warn, "specweb", "skipped {} malformed line(s)", bad.len());
        }
        let (records, report) = clean(records, &CleaningConfig::typical());
        specweb::core::log!(
            Info,
            "specweb",
            "cleaned log: kept {} (dropped {} non-existent, {} scripts, {} live)",
            report.kept,
            report.non_existent,
            report.scripts,
            report.live
        );
        // Without an address list every client is remote; pass a
        // campus predicate via future flags if needed.
        trace_from_records(&records, &topology(), &ImportConfig::default(), |_| false)
    } else {
        let mut cfg = match opts.preset.as_str() {
            "bu" => TraceConfig::bu_www(opts.seed),
            "media" => TraceConfig::media_site(opts.seed),
            "cluster" => TraceConfig::cluster(opts.seed, 8),
            other => {
                return Err(CoreError::invalid_config(
                    "preset",
                    format!("unknown preset `{other}` (bu|media|cluster)"),
                ))
            }
        };
        if let Some(days) = opts.days {
            cfg.duration_days = days;
        }
        TraceGenerator::new(cfg)?.generate(&topology())
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), CoreError> {
    let trace = build_trace(opts)?;
    let text = logfmt::write_log(&trace);
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &text)?;
            specweb::core::log!(
                Info,
                "specweb",
                "wrote {} accesses ({} clients, {} sessions) to {path}",
                trace.len(),
                trace.active_clients(),
                trace.n_sessions
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_analyze(opts: &Opts) -> Result<(), CoreError> {
    let trace = build_trace(opts)?;
    let days = trace.days().max(1);
    println!(
        "trace: {} accesses, {} documents, {} clients, {} sessions, {days} day(s)",
        trace.len(),
        trace.catalog.len(),
        trace.active_clients(),
        trace.n_sessions
    );

    let profile = ServerProfile::from_trace(&trace, ServerId::new(0), days)?;
    println!("\npopularity (server S0):");
    println!(
        "  remote demand R : {:.1} KB/day",
        profile.remote_bytes_per_day / 1e3
    );
    println!("  fitted λ        : {:.3e} per byte", profile.lambda);
    for frac in [0.005, 0.04, 0.10] {
        let b = Bytes::new((profile.remotely_accessed_bytes().as_f64() * frac) as u64);
        println!(
            "  top {:4.1}% of bytes covers {:4.1}% of remote requests",
            frac * 100.0,
            profile.hit_curve.hit_fraction(b) * 100.0
        );
    }

    let counts = trace.request_counts();
    if let Ok(theta) = specweb::core::dist::fit_zipf_theta(&counts) {
        println!("  Zipf exponent θ : {theta:.2} (rank/frequency fit)");
    }

    let classified = Classifier::default().classify(&trace, &[], days);
    let (r, l, g, u) = Classifier::class_summary(&classified);
    println!("\nclassification: {r} remote / {l} local / {g} global / {u} unaccessed");
    Ok(())
}

fn cmd_speculate(opts: &Opts) -> Result<(), CoreError> {
    let trace = build_trace(opts)?;
    let topo = topology();
    let total_days = trace.days().max(1);

    let mut cfg = SpecConfig::baseline(opts.tp);
    cfg.estimator.history_days = (total_days.saturating_mul(2) / 3).max(1);
    cfg.warmup_days = (total_days / 3).min(30);
    if let Some(ms) = opts.max_size {
        cfg.max_size = ms;
    }
    if let Some(secs) = opts.session_timeout {
        cfg.cache = CacheModel::Session {
            timeout: Duration::from_secs(secs),
        };
    }
    cfg.cooperative = opts.cooperative;

    let out = SpecSim::new(&trace, &topo).run(&cfg)?;
    println!("speculative service (T_p = {:.2}):", opts.tp);
    println!("  traffic     : {:+.1}%", out.ratios.traffic_increase_pct());
    println!(
        "  server load : -{:.1}%",
        out.ratios.server_load_reduction_pct()
    );
    println!(
        "  service time: -{:.1}%",
        out.ratios.service_time_reduction_pct()
    );
    println!(
        "  miss rate   : -{:.1}%",
        out.ratios.miss_rate_reduction_pct()
    );
    println!(
        "  pushes {} (wasted {}), prefetches {}",
        out.pushes, out.wasted_pushes, out.prefetches
    );
    println!(
        "  weighted cost (CommCost/ServCost): {:.3e} → {:.3e}",
        out.cost_baseline, out.cost_speculative
    );
    Ok(())
}

fn cmd_disseminate(opts: &Opts) -> Result<(), CoreError> {
    let trace = build_trace(opts)?;
    let topo = topology();
    let sim = DisseminationSim::new(&trace, &topo)?;
    let cfg = DisseminationConfig {
        fraction: opts.fraction,
        n_proxies: opts.proxies,
        ..DisseminationConfig::default()
    };
    let out = sim.run(&cfg, &[])?;
    println!(
        "dissemination (top {:.0}% of bytes, {} proxies):",
        cfg.fraction * 100.0,
        cfg.n_proxies
    );
    println!(
        "  requests intercepted : {:.1}%",
        out.intercepted_fraction * 100.0
    );
    println!("  traffic (bytes×hops) : -{:.1}%", out.reduction * 100.0);
    println!("  proxy storage        : {}", out.total_proxy_storage);
    Ok(())
}
