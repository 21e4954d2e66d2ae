//! Robustness tests: degenerate topologies, pathological configurations
//! and hostile inputs must produce errors or graceful no-ops — never
//! panics or nonsense metrics.

use proptest::prelude::*;
use specweb::prelude::*;
use specweb::spec::policy::Policy;
use specweb::trace::cleaning::{clean, CleaningConfig};
use specweb::trace::import::{trace_from_records, ImportConfig};
use specweb::trace::logfmt;

/// A topology with no interior nodes at all: root + leaves.
fn flat_topology() -> Topology {
    Topology::balanced(0, 1, 6)
}

#[test]
fn dissemination_without_proxy_candidates_is_a_no_op() {
    let topo = flat_topology();
    let mut tc = TraceConfig::small(700);
    tc.duration_days = 4;
    tc.sessions_per_day = 30;
    let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
    let sim = DisseminationSim::new(&trace, &topo).unwrap();
    let out = sim.run(&DisseminationConfig::default(), &[]).unwrap();
    // No interior nodes → nowhere to put proxies → exactly the baseline.
    assert_eq!(out.proxy_hits, 0);
    assert!(out.reduction.abs() < 1e-12);
}

#[test]
fn speculation_on_flat_topology_works() {
    // Clients one hop from the server: speculation is about caching, not
    // distance, so it must still function.
    let topo = flat_topology();
    let mut tc = TraceConfig::small(701);
    tc.duration_days = 8;
    tc.sessions_per_day = 40;
    let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
    let mut cfg = SpecConfig::baseline(0.3);
    cfg.estimator.history_days = 6;
    cfg.warmup_days = 2;
    let out = SpecSim::new(&trace, &topo).run(&cfg).unwrap();
    assert!(out.ratios.server_load < 1.0);
}

#[test]
fn single_client_trace_is_fine() {
    let topo = Topology::two_level(2, 2);
    let mut tc = TraceConfig::small(702);
    tc.clients.n_clients = 1;
    tc.clients.local_fraction = 0.0;
    tc.duration_days = 4;
    tc.sessions_per_day = 10;
    let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
    assert!(trace.active_clients() <= 1);
    let mut cfg = SpecConfig::baseline(0.5);
    cfg.estimator.history_days = 3;
    cfg.warmup_days = 1;
    let out = SpecSim::new(&trace, &topo).run(&cfg).unwrap();
    assert!(out.ratios.bandwidth.is_finite());
}

#[test]
fn hostile_log_lines_never_panic() {
    let hostile = [
        "client4294967295 - - [18446744073709551615] \"GET /doc/4294967295 HTTP/1.0\" 65535 18446744073709551615",
        "client1 - - [0] \"GET  HTTP/1.0\" 200 5",
        "client1 - - [[0]] \"GET / HTTP/1.0\" 200 5",
        "client1 - - [0] \"\" 200 5",
        "client-1 - - [0] \"GET / HTTP/1.0\" 200 5",
        "client1 - - [0] \"GET / HTTP/1.0\" 200 -5",
        "\u{0}\u{1}\u{2}",
        "client1 - - [0] \"GET /../../etc/passwd HTTP/1.0\" 200 5",
    ];
    for line in hostile {
        // Must return Ok or Err, never panic.
        let _ = logfmt::LogRecord::parse(line, 1);
    }
    // The bulk parser reports, not dies.
    let text = hostile.join("\n");
    let (records, bad) = logfmt::parse_log(&text);
    assert_eq!(records.len() + bad.len(), hostile.len());
}

#[test]
fn import_survives_a_cleaned_hostile_log() {
    let text = "client1 - - [0] \"GET /a HTTP/1.0\" 200 10\n\
                garbage line\n\
                client2 - - [500] \"GET /cgi-bin/x HTTP/1.0\" 200 10\n\
                client1 - - [1000] \"GET /missing HTTP/1.0\" 404 0\n\
                client3 - - [2000] \"GET /a HTTP/1.0\" 200 10\n";
    let (records, bad) = logfmt::parse_log(text);
    assert_eq!(bad.len(), 1);
    let (cleaned, _) = clean(records, &CleaningConfig::typical());
    let topo = Topology::two_level(2, 3);
    let trace = trace_from_records(&cleaned, &topo, &ImportConfig::default(), |_| false).unwrap();
    assert_eq!(trace.len(), 2); // the two good, non-script, 200 lines
    assert_eq!(trace.catalog.len(), 1); // both hit /a
}

#[test]
fn imported_trace_runs_both_simulators() {
    // Full external-data path: synthetic → log text → parse → clean →
    // import → simulate. This is the workflow for real logs.
    let topo = Topology::balanced(2, 3, 4);
    let mut tc = TraceConfig::small(703);
    tc.duration_days = 8;
    tc.sessions_per_day = 50;
    let orig = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
    let text = logfmt::write_log(&orig);
    let (records, _) = logfmt::parse_log(&text);
    let (cleaned, _) = clean(records, &CleaningConfig::typical());
    let trace = trace_from_records(&cleaned, &topo, &ImportConfig::default(), |raw| {
        orig.clients.get(raw).locality == specweb::trace::clients::Locality::Local
    })
    .unwrap();

    let mut cfg = SpecConfig::baseline(0.3);
    cfg.estimator.history_days = 6;
    cfg.warmup_days = 2;
    let s = SpecSim::new(&trace, &topo).run(&cfg).unwrap();
    assert!(s.ratios.server_load < 1.0, "{:?}", s.ratios);

    let d = DisseminationSim::new(&trace, &topo)
        .unwrap()
        .run(&DisseminationConfig::default(), &[])
        .unwrap();
    assert!(d.reduction > 0.0);
}

#[test]
fn extreme_policies_stay_sane() {
    let topo = Topology::two_level(3, 4);
    let mut tc = TraceConfig::small(704);
    tc.duration_days = 6;
    tc.sessions_per_day = 30;
    let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
    let sim = SpecSim::new(&trace, &topo);

    // MaxSize = 1 byte: nothing can be pushed.
    let mut cfg = SpecConfig::baseline(0.1);
    cfg.estimator.history_days = 4;
    cfg.warmup_days = 2;
    cfg.max_size = Bytes::new(1);
    let out = sim.run(&cfg).unwrap();
    assert_eq!(out.pushes, 0);
    assert!((out.ratios.bandwidth - 1.0).abs() < 1e-12);

    // TopK with an enormous k: bounded by the closure rows.
    let mut cfg = SpecConfig::baseline(0.1);
    cfg.estimator.history_days = 4;
    cfg.warmup_days = 2;
    cfg.policy = Policy::TopK {
        k: usize::MAX,
        floor: 0.05,
    };
    let out = sim.run(&cfg).unwrap();
    assert!(out.ratios.bandwidth.is_finite());
}

/// Arbitrary (possibly control-character-ridden) text lines.
fn arbitrary_line() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..=255u8, 0..160)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The whole external-log pipeline — single-line parse, bulk
    /// reader, cleaning — digests arbitrary bytes without panicking,
    /// and the bulk reader accounts for every line it saw.
    #[test]
    fn arbitrary_bytes_never_panic_the_log_pipeline(
        lines in prop::collection::vec(arbitrary_line(), 0..8),
    ) {
        for (i, line) in lines.iter().enumerate() {
            let _ = logfmt::LogRecord::parse(line, i + 1);
        }
        let text = lines.join("\n");
        let (records, bad) = logfmt::parse_log(&text);
        prop_assert!(records.len() + bad.len() <= text.lines().count() + 1);
        let parsed = records.len();
        let (cleaned, report) = clean(records, &CleaningConfig::typical());
        prop_assert_eq!(report.kept, cleaned.len());
        prop_assert_eq!(
            report.kept + report.non_existent + report.scripts + report.live,
            parsed
        );
    }

    /// Near-valid lines — the right shape with arbitrary field values —
    /// parse to Ok or Err but never panic, and whatever parses survives
    /// cleaning without a panic.
    #[test]
    fn near_valid_log_lines_never_panic(
        client in 0u64..1u64 << 40,
        stamp in prop::collection::vec(0u8..=255u8, 0..24),
        path in prop::collection::vec(0u8..=127u8, 0..32),
        status in 0u32..1200,
        size in 0u64..u64::MAX,
    ) {
        let stamp = String::from_utf8_lossy(&stamp).into_owned();
        let path = String::from_utf8_lossy(&path).into_owned();
        let line = format!(
            "client{client} - - [{stamp}] \"GET {path} HTTP/1.0\" {status} {size}"
        );
        let single = logfmt::LogRecord::parse(&line, 1);
        let (records, bad) = logfmt::parse_log(&line);
        // The bulk reader and the single-line parser must agree.
        prop_assert_eq!(single.is_ok(), records.len() == 1 && bad.is_empty());
        let _ = clean(records, &CleaningConfig::typical());
    }
}

/// Server knowledge for the connection-state-machine proptests, built
/// once — the estimation pipeline is deterministic, so sharing it
/// across cases is sound and keeps the proptest fast.
fn conn_knowledge() -> &'static ServerKnowledge {
    use std::sync::OnceLock;
    static KNOWLEDGE: OnceLock<ServerKnowledge> = OnceLock::new();
    KNOWLEDGE.get_or_init(|| {
        specweb::serve::session::KnowledgeSpec::demo(77)
            .build(1)
            .expect("demo knowledge builds")
    })
}

/// One request-stream line: valid GETs (with and without HAVE digests),
/// QUITs, and garbage.
fn request_line() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..200).prop_map(|d| format!("GET {d}\n")),
        (0u64..50, prop::collection::vec(0u64..50, 1..5)).prop_map(|(d, have)| {
            let ids: Vec<String> = have.iter().map(u64::to_string).collect();
            format!("GET {d} HAVE {}\n", ids.join(","))
        }),
        Just("QUIT\n".to_string()),
        arbitrary_line().prop_map(|mut s| {
            s.push('\n');
            s
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The incremental frame decoder is fragmentation-invariant over
    /// arbitrary bytes: feeding the whole input at once and feeding it
    /// split at arbitrary boundaries produce identical frames (and
    /// identical violations), and neither path panics.
    #[test]
    fn frame_decoder_is_fragmentation_invariant(
        bytes in prop::collection::vec(0u8..=255u8, 0..300),
        raw_cuts in prop::collection::vec(0usize..512, 0..8),
        cap in 1usize..64,
    ) {
        use specweb::serve::conn::FrameDecoder;

        let mut whole = Vec::new();
        let _ = FrameDecoder::new(cap).feed(&bytes, &mut whole);

        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut fragmented = Vec::new();
        let mut decoder = FrameDecoder::new(cap);
        let mut start = 0;
        // The caller contract: stop feeding after a violation.
        let mut ok = true;
        for cut in cuts.into_iter().chain(std::iter::once(bytes.len())) {
            if ok && cut > start {
                ok = decoder.feed(&bytes[start..cut], &mut fragmented);
            }
            start = start.max(cut);
        }
        prop_assert_eq!(whole, fragmented);
    }

    /// The whole connection state machine is fragmentation-invariant:
    /// the same request stream split at arbitrary byte boundaries
    /// yields byte-identical responses, the same digest, and the same
    /// counters — the invariant that makes record/replay exact. And it
    /// never panics, whatever the stream contains.
    #[test]
    fn conn_core_output_is_fragmentation_invariant(
        lines in prop::collection::vec(request_line(), 0..6),
        raw_cuts in prop::collection::vec(0usize..512, 0..10),
    ) {
        use specweb::serve::conn::ConnCore;
        use specweb::serve::{ProtocolLimits, ServiceLevel};

        let input: Vec<u8> = lines.concat().into_bytes();
        let k = conn_knowledge();
        let limits = ProtocolLimits::default();

        let mut whole = ConnCore::new(0, limits);
        whole.on_bytes(&input, ServiceLevel::Full, k);
        whole.on_eof();

        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (input.len() + 1)).collect();
        cuts.sort_unstable();
        let mut frag = ConnCore::new(0, limits);
        let mut start = 0;
        for cut in cuts.into_iter().chain(std::iter::once(input.len())) {
            if cut > start {
                frag.on_bytes(&input[start..cut], ServiceLevel::Full, k);
            }
            start = start.max(cut);
        }
        frag.on_eof();

        prop_assert_eq!(whole.output(), frag.output());
        prop_assert_eq!(whole.digest_hex(), frag.digest_hex());
        prop_assert_eq!(whole.counters(), frag.counters());
    }
}

#[test]
fn zero_budget_allocation_is_all_zero() {
    let servers = [
        ServerModel {
            lambda: 1e-6,
            demand: 100.0,
        },
        ServerModel {
            lambda: 1e-6,
            demand: 200.0,
        },
    ];
    let a = optimize(&servers, Bytes::ZERO).unwrap();
    assert!(a.bytes.iter().all(|&b| b == Bytes::ZERO));
    assert_eq!(a.alpha, 0.0);
}

/// The `specweb` CLI rejects what it does not understand — exit 2 and
/// the usage text — where it used to run with a default in place of
/// the typo. One well-formed run shows the same flags are accepted.
#[test]
fn cli_rejects_unknown_flags_bad_values_and_overflow() {
    let specweb = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_specweb"))
            .args(args)
            .output()
            .expect("spawn specweb");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    // (arguments, what the error names)
    let rejected: [(&[&str], &str); 8] = [
        (&["disseminate", "--fracton", "0.2"], "`--fracton`"),
        (
            &["generate", "--seed", "1", "--seed", "2"],
            "`--seed` given",
        ),
        (&["generate", "stray"], "`stray`"),
        (&["generate", "--seed", "abc"], "`--seed abc`"),
        (&["speculate", "--tp", "x"], "`--tp x`"),
        (&["generate", "--days", "q"], "`--days q`"),
        (&["speculate", "--max-size", "29G"], "`--max-size 29G`"),
        (
            &["speculate", "--max-size", "99999999999999999M"],
            "too large",
        ),
    ];
    for (args, named) in rejected {
        let (code, stderr) = specweb(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: specweb"), "{args:?}: {stderr}");
    }
    let (code, stderr) = specweb(&[
        "analyze", "--preset", "cluster", "--seed", "3", "--days", "2",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
}
