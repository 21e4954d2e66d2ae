//! `specweb-serve`: record and replay live serve sessions.
//!
//! ```text
//! specweb-serve record --seed 1996 --out session.json
//! specweb-serve replay --trace session.json --jobs 4 --out outcome.json
//! ```
//!
//! `record` spawns the event-loop server in recording mode, drives a
//! scripted client workload against it (pipelined requests, a
//! fragmented line, one protocol violation), and writes the captured
//! `specweb-session/v1` trace. The trace embeds how the server's
//! knowledge was built, so `replay` can re-drive the exact byte
//! fragments through fresh state machines and diff the outcome — any
//! divergence exits nonzero. The outcome JSON is deterministic (no
//! wall-clock content), so CI can regenerate it from the committed
//! golden fixture and `git diff` it, the same staleness gate the lint
//! artifacts use.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use specweb_core::log;
use specweb_core::obs::{self, RunManifest};
use specweb_core::{CoreError, Result};
use specweb_serve::session::KnowledgeSpec;
use specweb_serve::{replay, ServerConfig, SessionTrace, SpecServer};

fn main() -> ExitCode {
    obs::set_default_level(obs::Level::Info);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let opts = Opts::parse(&args[1..]);
    let result = match cmd.as_str() {
        "record" => cmd_record(&opts),
        "replay" => cmd_replay(&opts),
        "--help" | "-h" | "help" => {
            usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CoreError::invalid_config(
            "command",
            format!("unknown command `{other}`"),
        )),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            log!(Error, "serve", "error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: specweb-serve <command> [options]\n\
         \n\
         commands:\n\
         \x20 record   run the event-loop server under a scripted workload\n\
         \x20          and capture a specweb-session/v1 trace\n\
         \x20 replay   re-drive a recorded trace deterministically and diff\n\
         \x20          the outcome (exit 1 on divergence)\n\
         \n\
         options:\n\
         \x20 --seed N          knowledge seed for record (default 1996)\n\
         \x20 --clients N       scripted clients for record (default 4)\n\
         \x20 --requests N      GETs per client for record (default 3)\n\
         \x20 --out FILE        where to write the trace (record) or the\n\
         \x20                   replay outcome JSON (replay)\n\
         \x20 --trace FILE      the session.json to replay\n\
         \x20 --jobs N          closure-build workers for replay (default 1)\n\
         \x20 --manifest DIR    also write manifest_session_replay.json with\n\
         \x20                   the session digest as a pinned artifact\n"
    );
}

/// Minimal flag parser (no clap in the offline dependency set).
struct Opts {
    kv: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut kv = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some(v) = it.peek() {
                    if !v.starts_with("--") {
                        kv.push((name.to_string(), it.next().expect("peeked").clone()));
                    }
                }
            }
        }
        Opts { kv }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.kv
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn usize_or(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }
}

/// Reads everything until EOF, discarding it; the recording server has
/// already captured the interesting half (the request bytes).
fn drain(stream: &mut TcpStream) {
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn cmd_record(opts: &Opts) -> Result<ExitCode> {
    let seed = opts.usize_or("seed", 1996) as u64;
    let clients = opts.usize_or("clients", 4);
    let requests = opts.usize_or("requests", 3);
    let out = opts.get("out").unwrap_or("session.json").to_string();

    let spec = KnowledgeSpec::demo(seed);
    log!(Info, "serve", "building knowledge (seed {seed})…");
    let knowledge = spec.build(1)?;
    let handle = SpecServer::spawn_recording(knowledge, ServerConfig::default(), spec)?;
    let addr = handle.addr();
    log!(
        Info,
        "serve",
        "recording on {addr}: {clients} clients × {requests} requests"
    );

    // Scripted, sequential workload: pipelined GETs with one line
    // deliberately fragmented across writes, so the trace exercises the
    // incremental decoder, then a STATS probe on the first client (the
    // reply snapshot is recorded as a replay input), then a clean QUIT.
    for i in 0..clients {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        for k in 0..requests {
            let line = format!("GET {}\n", (i + k) % 8);
            if k == 0 {
                // Split mid-token: the decoder must reassemble.
                let bytes = line.as_bytes();
                s.write_all(&bytes[..2])?;
                s.flush()?;
                std::thread::sleep(Duration::from_millis(2));
                s.write_all(&bytes[2..])?;
            } else {
                s.write_all(line.as_bytes())?;
            }
        }
        if i == 0 {
            s.write_all(b"STATS\n")?;
        }
        s.write_all(b"QUIT\n")?;
        drain(&mut s);
    }
    // One hostile client: an unparseable verb must become a typed
    // protocol error in the trace, not a hang or a panic.
    {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        s.write_all(b"EVIL nonsense\n")?;
        drain(&mut s);
    }

    let trace = handle.shutdown_into_trace()?;
    std::fs::write(&out, trace.to_json())?;
    log!(
        Info,
        "serve",
        "trace → {out}: {} events, {} conns, session digest {}",
        trace.events.len(),
        trace.summary.conns.len(),
        trace.summary.digest
    );

    // Immediately prove the recording replays: a divergence here means
    // the server itself violated the determinism contract.
    let outcome = replay(&trace, 1)?;
    if !outcome.matches() {
        for d in &outcome.divergences {
            log!(Error, "serve", "divergence: {d}");
        }
        return Ok(ExitCode::FAILURE);
    }
    log!(Info, "serve", "self-check: trace replays byte-identically");
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(opts: &Opts) -> Result<ExitCode> {
    let Some(path) = opts.get("trace") else {
        return Err(CoreError::invalid_config(
            "replay.trace",
            "--trace FILE is required",
        ));
    };
    let jobs = opts.usize_or("jobs", 1);
    let text = std::fs::read_to_string(path)?;
    let trace = SessionTrace::from_json(&text)?;
    let outcome = replay(&trace, jobs)?;

    if let Some(out) = opts.get("out") {
        std::fs::write(out, outcome.to_json())?;
        log!(Info, "serve", "outcome → {out}");
    }
    if let Some(dir) = opts.get("manifest") {
        let manifest = RunManifest::new(
            "session_replay",
            trace.knowledge.seed,
            "full",
            obs::global().snapshot(),
        )
        .with_run_info(jobs, &obs::git_describe())
        .with_artifact("session", &outcome.summary.digest);
        let path = std::path::Path::new(dir).join(manifest.file_name());
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&manifest).map_err(|e| CoreError::Io(e.to_string()))?,
        )?;
        log!(Info, "serve", "manifest → {}", path.display());
    }

    if outcome.matches() {
        log!(
            Info,
            "serve",
            "replay OK: {} events, {} conns, session digest {}",
            outcome.events,
            outcome.summary.conns.len(),
            outcome.summary.digest
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for d in &outcome.divergences {
            log!(Error, "serve", "divergence: {d}");
        }
        Ok(ExitCode::FAILURE)
    }
}
