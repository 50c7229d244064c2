//! End-to-end tests of the `fsim` binary.

use std::process::Command;

use cfs_telemetry::JsonValue;

fn fsim(args: &[&str]) -> (bool, String, String) {
    let (code, out, err) = fsim_code(args);
    (code == Some(0), out, err)
}

/// Like [`fsim`], but reporting the raw exit code — diagnostics exit with 2.
fn fsim_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fsim"))
        .args(args)
        .output()
        .expect("fsim binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, _, err) = fsim(&["--help"]);
    assert!(ok);
    assert!(err.contains("usage:"));
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let (ok, _, err) = fsim(&[]);
    assert!(ok);
    assert!(err.contains("fsim"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, err) = fsim(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn stats_builtin_s27() {
    let (ok, out, _) = fsim(&["stats", "@s27"]);
    assert!(ok);
    assert!(out.contains("s27"));
    assert!(out.contains("stuck-at faults"));
    assert!(out.contains("macro cells"));
}

#[test]
fn stats_unknown_builtin_fails() {
    let (ok, _, err) = fsim(&["stats", "@sNope"]);
    assert!(!ok);
    assert!(err.contains("unknown built-in"));
}

#[test]
fn sim_with_random_patterns() {
    let (ok, out, _) = fsim(&["sim", "@s27", "--random", "64", "--seed", "3"]);
    assert!(ok, "{out}");
    assert!(out.contains("csim-MV"));
    assert!(out.contains("faults"));
}

#[test]
fn sim_each_simulator_agrees_on_detections() {
    let detected = |sim: &str| -> String {
        let (ok, out, err) = fsim(&["sim", "@s27", "--random", "64", "--simulator", sim]);
        assert!(ok, "{sim}: {err}");
        // "x/y faults" fragment
        out.split_whitespace()
            .find(|w| w.contains('/'))
            .unwrap_or("")
            .to_owned()
    };
    let csim = detected("csim");
    let proofs = detected("proofs");
    let serial = detected("serial");
    assert_eq!(csim, proofs);
    assert_eq!(csim, serial);
}

#[test]
fn sim_from_bench_file_and_pattern_file() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("inv.bench");
    std::fs::write(&bench, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
    let pats = dir.join("p.pat");
    std::fs::write(&pats, "# comment\n0\n1\n").unwrap();
    let (ok, out, err) = fsim(&[
        "sim",
        bench.to_str().unwrap(),
        "--patterns",
        pats.to_str().unwrap(),
        "--uncollapsed",
    ]);
    assert!(ok, "{err}");
    assert!(
        out.contains("(100.00%)"),
        "all inverter faults found: {out}"
    );
}

#[test]
fn pattern_width_mismatch_is_reported() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let pats = dir.join("bad.pat");
    std::fs::write(&pats, "0101010101\n").unwrap();
    let (ok, _, err) = fsim(&["sim", "@s27", "--patterns", pats.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("bits"), "{err}");
    // A malformed pattern file is a diagnosed input: coded, exit 2.
    let (code, _, err) = fsim_code(&["sim", "@s27", "--patterns", pats.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.starts_with("error: V001 [pattern-invalid] ") && err.contains("bad.pat:1:"),
        "{err}"
    );
    let bad_char = dir.join("bad-char.pat");
    std::fs::write(&bad_char, "0101\n01z1\n").unwrap();
    let (code, _, err) = fsim_code(&["sim", "@s27", "--patterns", bad_char.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.starts_with("error: V001 [pattern-invalid] ") && err.contains("bad-char.pat:2:"),
        "{err}"
    );
    // A file that cannot be read is an operational failure: exit 1.
    let missing = dir.join("missing.pat");
    let (code, _, err) = fsim_code(&["sim", "@s27", "--patterns", missing.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.starts_with("fsim: cannot read "), "{err}");
}

/// A fanout-free region longer than a macro cell's 64-gate plan splits
/// into several cells instead of panicking, and csim-MV still detects
/// exactly what gate-level csim-V and the serial oracle detect.
#[test]
fn long_inverter_chains_check_clean_and_simulate_like_serial() {
    let dir = std::env::temp_dir().join("fsim-cli-chains");
    std::fs::create_dir_all(&dir).unwrap();
    for n in [65, 1200] {
        let path = dir.join(format!("chain{n}.bench"));
        let mut text = format!("INPUT(a)\nOUTPUT(g{n})\ng1 = NOT(a)\n");
        for i in 2..=n {
            text.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
        }
        std::fs::write(&path, text).unwrap();
        let bench = path.to_str().unwrap();
        let (code, _, err) = fsim_code(&["check", bench]);
        assert_eq!(code, Some(0), "chain {n}: {err}");
        let detections = |tag: &str, extra: &[&str]| {
            let det = dir.join(format!("chain{n}-{tag}.txt"));
            let det = det.to_str().unwrap();
            let mut args = vec!["sim", bench, "--random", "16", "--uncollapsed"];
            args.extend_from_slice(extra);
            args.extend_from_slice(&["--detections", det]);
            let (ok, _, err) = fsim(&args);
            assert!(ok, "{args:?}: {err}");
            std::fs::read_to_string(det).unwrap()
        };
        let mv = detections("mv", &[]);
        assert!(!mv.is_empty(), "chain {n}: nothing detected");
        assert_eq!(
            mv,
            detections("v", &["--variant", "v"]),
            "chain {n}: csim-V"
        );
        let serial = detections("serial", &["--simulator", "serial"]);
        assert_eq!(mv, serial, "chain {n}: serial");
    }
}

#[test]
fn transition_simulation_runs() {
    let (ok, out, _) = fsim(&["transition", "@s27", "--random", "64"]);
    assert!(ok);
    assert!(out.contains("csim-T"));
}

#[test]
fn generate_round_trips_through_sim() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("gen.bench");
    let (ok, _, err) = fsim(&["generate", "s298g", "--out", bench.to_str().unwrap()]);
    assert!(ok, "{err}");
    let (ok, out, err) = fsim(&["sim", bench.to_str().unwrap(), "--random", "32"]);
    assert!(ok, "{err}");
    assert!(out.contains("gen"), "{out}");
}

#[test]
fn generate_writes_the_builtin_s27() {
    let (code, out, err) = fsim_code(&["generate", "s27"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.starts_with("# s27"), "{out}");
    assert!(out.contains("DFF("), "{out}");
}

#[test]
fn generate_unknown_name_fails() {
    let (code, _, err) = fsim_code(&["generate", "sNope"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unknown built-in circuit \"sNope\""), "{err}");
}

#[test]
fn atpg_writes_patterns() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("s27.pat");
    let (ok, out, err) = fsim(&[
        "atpg",
        "@s27",
        "--random",
        "16",
        "--max-frames",
        "3",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("coverage"));
    let text = std::fs::read_to_string(&out_file).unwrap();
    assert!(!text.trim().is_empty());
    // Patterns feed back into sim.
    let (ok, _, err) = fsim(&["sim", "@s27", "--patterns", out_file.to_str().unwrap()]);
    assert!(ok, "{err}");
}

#[test]
fn equals_form_flags_are_accepted() {
    let (ok, out, err) = fsim(&["sim", "@s27", "--random=16", "--seed=3", "--variant=base"]);
    assert!(ok, "{err}");
    assert!(out.contains("16 patterns"), "{out}");
    assert!(out.contains("csim on s27"), "{out}");
}

#[test]
fn unknown_flag_is_an_error() {
    let (ok, _, err) = fsim(&["sim", "@s27", "--frobnicate", "3"]);
    assert!(!ok);
    assert!(err.contains("unknown flag --frobnicate"), "{err}");
    let (ok, _, err) = fsim(&["transition", "@s27", "--uncollapsed"]);
    assert!(!ok);
    assert!(err.contains("unknown flag --uncollapsed"), "{err}");
}

#[test]
fn boolean_flag_rejects_a_value() {
    let (ok, _, err) = fsim(&["sim", "@s27", "--stats=yes"]);
    assert!(!ok);
    assert!(err.contains("does not take a value"), "{err}");
}

#[test]
fn value_flag_requires_a_value() {
    let (ok, _, err) = fsim(&["sim", "@s27", "--random"]);
    assert!(!ok);
    assert!(err.contains("needs a value"), "{err}");
}

#[test]
fn sim_stats_prints_metric_tables() {
    let (ok, out, err) = fsim(&["sim", "@s27", "--random", "16", "--stats"]);
    assert!(ok, "{err}");
    assert!(out.contains("avg |F|"), "{out}");
    assert!(out.contains("visible%"), "{out}");
    assert!(out.contains("propagate"), "{out}");
    assert!(out.contains("fault-list length per node"), "{out}");
    assert!(out.contains("event-queue depth per level"), "{out}");
}

#[test]
fn sim_variant_all_renders_comparison_table() {
    let (ok, out, err) = fsim(&["sim", "@s27", "--random", "16", "--variant", "all"]);
    assert!(ok, "{err}");
    for name in ["csim ", "csim-V", "csim-M", "csim-MV"] {
        assert!(out.contains(name), "missing {name} in: {out}");
    }
    assert!(out.contains("avg |F|"), "{out}");
}

#[test]
fn baseline_stats_flow_through_the_same_table() {
    let (ok, out, err) = fsim(&[
        "sim",
        "@s27",
        "--random",
        "16",
        "--simulator",
        "proofs",
        "--stats",
    ]);
    assert!(ok, "{err}");
    // Headline columns are filled, probe-only columns are dashes.
    assert!(out.contains("proofs"), "{out}");
    assert!(out.contains("avg |F|"), "{out}");
    assert!(out.contains(" - "), "{out}");
}

/// The ISSUE acceptance scenario: a `--stats-json` run emits one record
/// per pattern plus a summary whose detected count matches a plain run.
#[test]
fn stats_json_emits_pattern_records_and_matching_summary() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("stats.jsonl");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s27",
        "--random",
        "8",
        "--stats-json",
        json.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&json).unwrap();
    let lines: Vec<JsonValue> = text
        .lines()
        .map(|l| JsonValue::parse(l).expect("valid JSON line"))
        .collect();
    assert_eq!(lines.len(), 9, "8 pattern records + 1 summary");
    for (i, line) in lines[..8].iter().enumerate() {
        assert_eq!(
            line.get("type").and_then(JsonValue::as_str),
            Some("pattern")
        );
        assert_eq!(
            line.get("pattern").and_then(JsonValue::as_u64),
            Some(i as u64)
        );
        assert!(line
            .get("avg_list_len")
            .and_then(JsonValue::as_f64)
            .is_some());
    }
    let summary = &lines[8];
    assert_eq!(
        summary.get("type").and_then(JsonValue::as_str),
        Some("summary")
    );
    assert_eq!(
        summary.get("simulator").and_then(JsonValue::as_str),
        Some("csim-MV")
    );
    assert_eq!(summary.get("patterns").and_then(JsonValue::as_u64), Some(8));

    // Detected count agrees with an uninstrumented run of the same seed.
    let (ok, out, err) = fsim(&["sim", "@s27", "--random", "8"]);
    assert!(ok, "{err}");
    let plain_detected: u64 = out
        .split_whitespace()
        .find(|w| w.contains('/'))
        .and_then(|w| w.split('/').next())
        .and_then(|n| n.parse().ok())
        .expect("detected count in report");
    assert_eq!(
        summary.get("detected").and_then(JsonValue::as_u64),
        Some(plain_detected)
    );
}

/// `--threads 4` produces a byte-identical detection dump to
/// `--threads 1`.
#[test]
fn sim_threads_detections_are_byte_identical() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = dir.join("det-serial.txt");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s298g",
        "--random",
        "64",
        "--threads",
        "1",
        "--detections",
        serial.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let reference = std::fs::read_to_string(&serial).unwrap();
    assert!(!reference.trim().is_empty(), "some faults detected");
    let par = dir.join("det-par.txt");
    let (ok, out, err) = fsim(&[
        "sim",
        "@s298g",
        "--random",
        "64",
        "--threads",
        "4",
        "--detections",
        par.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("csim-MV-p4"), "{out}");
    assert_eq!(std::fs::read_to_string(&par).unwrap(), reference);
}

/// More requested shards than faults: s27's 26 collapsed faults are
/// dealt one to a shard, one worker each, and the run keeps the name of
/// the requested thread count and the serial detections.
#[test]
fn more_shards_than_faults_deal_one_fault_per_shard() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let detections = |extra: &[&str], file: &str| -> (String, String) {
        let det = dir.join(file);
        let mut args = vec!["sim", "@s27", "--random", "64", "--stats"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--detections", det.to_str().unwrap()]);
        let (ok, out, err) = fsim(&args);
        assert!(ok, "{err}");
        (out, std::fs::read_to_string(&det).unwrap())
    };
    let (_, serial) = detections(&[], "det-s27-serial.txt");
    for threads in ["32", "256"] {
        let file = format!("det-s27-t{threads}.txt");
        let (out, det) = detections(&["--threads", threads, "--steal"], &file);
        assert_eq!(det, serial, "--threads {threads} --steal");
        assert!(out.contains(&format!("csim-MV-p{threads}")), "{out}");
        assert!(out.contains("× 26 shards"), "{out}");
        assert!(out.contains("on 26 workers"), "{out}");
    }
}

/// `--shard-plan` is retired: round-robin is the only partition, and the
/// flag is as unknown as any other.
#[test]
fn retired_shard_plan_flag_is_unknown() {
    let det = std::env::temp_dir().join("fsim-cli-test-shard-plan.txt");
    let _ = std::fs::remove_file(&det);
    let (code, out, err) = fsim_code(&[
        "sim",
        "@s27",
        "--threads",
        "2",
        "--shard-plan",
        "round-robin",
        "--detections",
        det.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{err}");
    assert_eq!(err, "fsim: sim: unknown flag --shard-plan (try --help)\n");
    assert!(out.is_empty(), "{out}");
    assert!(!det.exists(), "the refused run wrote its detections");
    let (_, _, help) = fsim(&["--help"]);
    assert!(!help.contains("--shard-plan"), "{help}");
}

/// Fault sites number a gate's pins with one byte, so a gate reads at
/// most 256 nets. A wider gate is S003 under `fsim check` and refused with
/// the same S003 (exit 1) by every command that loads it; the 256-input
/// gate runs, and names its last pin 255.
#[test]
fn gates_wider_than_256_inputs_are_refused() {
    let dir = std::env::temp_dir().join("fsim-cli-wide");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = |width: usize| -> String {
        let names: Vec<String> = (0..width).map(|i| format!("a{i}")).collect();
        let inputs: Vec<String> = names.iter().map(|n| format!("INPUT({n})\n")).collect();
        let src = format!(
            "{}OUTPUT(y)\ny = XOR({})\n",
            inputs.concat(),
            names.join(", ")
        );
        let path = dir.join(format!("w{width}.bench"));
        std::fs::write(&path, src).unwrap();
        path.to_str().unwrap().to_owned()
    };
    let w256 = bench(256);
    let (code, _, err) = fsim_code(&["check", &w256]);
    assert_eq!(code, Some(0), "{err}");
    let (ok, out, err) = fsim(&["sim", &w256, "--random", "16"]);
    assert!(ok, "{err}");
    assert!(out.contains("csim-MV"), "{out}");
    // 256 inputs and y: 514 output faults, then y's pins two faults each.
    let (ok, out, err) = fsim(&["explain", &w256, "1025", "--uncollapsed", "--random", "4"]);
    assert!(ok, "{err}");
    assert!(out.contains("input 255 of y stuck at 1"), "{out}");
    for width in [257, 300] {
        let path = bench(width);
        let (code, out, err) = fsim_code(&["check", &path]);
        assert_ne!(code, Some(0), "{width}: {out}{err}");
        assert!(out.contains("S003"), "{width}: {out}");
        let runs: [&[&str]; 5] = [
            &["sim", &path, "--random", "4"],
            &["stats", &path],
            &["explain", &path, "1201", "--uncollapsed", "--random", "4"],
            &["atpg", &path],
            &["transition", &path, "--random", "4"],
        ];
        for args in runs {
            let (code, out, err) = fsim_code(args);
            assert_eq!(code, Some(1), "{args:?}: {out}{err}");
            assert!(err.contains("S003 [bad-arity]"), "{args:?}: {err}");
            assert!(
                err.contains(&format!("has {width} inputs; at most 256 are supported")),
                "{args:?}: {err}"
            );
        }
    }
}

#[test]
fn transition_threads_detections_are_byte_identical() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = dir.join("tdet-serial.txt");
    let par = dir.join("tdet-par.txt");
    let (ok, _, err) = fsim(&[
        "transition",
        "@s298g",
        "--random",
        "64",
        "--detections",
        serial.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let (ok, out, err) = fsim(&[
        "transition",
        "@s298g",
        "--random",
        "64",
        "--threads",
        "4",
        "--detections",
        par.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("csim-T-p4"), "{out}");
    assert_eq!(
        std::fs::read_to_string(&par).unwrap(),
        std::fs::read_to_string(&serial).unwrap()
    );
}

/// Every branch of the run driver — telemetry, progress, sharded,
/// batched, traced, checkpointed, resumed — must leave the plain
/// serial run's detection dump byte-identical, for both fault models.
#[test]
fn every_driver_branch_matches_the_serial_detections() {
    let dir = std::env::temp_dir().join("fsim-cli-branches");
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    for cmd in ["sim", "transition"] {
        let run = |tag: &str, extra: &[&str]| -> String {
            let det = p(&format!("{cmd}-{tag}.txt"));
            let mut args = vec![cmd, "@s298g", "--random", "64", "--detections", &det];
            args.extend_from_slice(extra);
            let (ok, out, err) = fsim(&args);
            assert!(ok, "{cmd} {extra:?}: {err}");
            assert!(out.contains("detections to"), "{cmd} {extra:?}: {out}");
            std::fs::read_to_string(&det).unwrap()
        };
        let serial = run("serial", &[]);
        assert!(!serial.trim().is_empty(), "{cmd}: some faults detected");
        let jsonl = p(&format!("{cmd}.jsonl"));
        let trace = p(&format!("{cmd}.trace.json"));
        let ckpts = p(&format!("{cmd}-ckpts"));
        let _ = std::fs::remove_dir_all(&ckpts);
        let rows: [(&str, Vec<&str>); 9] = [
            ("stats", vec!["--stats"]),
            ("stats-json", vec!["--stats-json", &jsonl]),
            ("trace-every", vec!["--trace-every", "16"]),
            ("threads", vec!["--threads", "2"]),
            (
                "batched",
                vec!["--threads", "2", "--batch-windows", "8", "--steal"],
            ),
            ("trace-out", vec!["--trace-out", &trace]),
            (
                "trace-out-threads",
                vec!["--trace-out", &trace, "--threads", "2"],
            ),
            (
                "checkpoint",
                vec!["--checkpoint-every", "16", "--checkpoint-out", &ckpts],
            ),
            ("resume", vec![]),
        ];
        let resume_from = format!("{ckpts}/ckpt-000032.bin");
        for (tag, extra) in rows {
            let extra = if tag == "resume" {
                vec!["--resume-from", resume_from.as_str()]
            } else {
                extra
            };
            assert_eq!(run(tag, &extra), serial, "{cmd} {tag} diverged from serial");
        }
    }
}

/// A checkpoint in the retired version-1 format is refused as `K001` with
/// exit status 2 before any simulation.
#[test]
fn version_1_checkpoint_is_refused_with_k001() {
    let dir = std::env::temp_dir().join("fsim-cli-ckpt-v1");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpts = dir.to_str().unwrap();
    let (ok, _, err) = fsim(&[
        "sim",
        "@s27",
        "--random",
        "16",
        "--checkpoint-every",
        "8",
        "--checkpoint-out",
        ckpts,
    ]);
    assert!(ok, "{err}");
    let mut bytes = std::fs::read(dir.join("ckpt-000008.bin")).unwrap();
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    let v1 = dir.join("v1.bin");
    std::fs::write(&v1, bytes).unwrap();
    let (code, out, err) = fsim_code(&[
        "sim",
        "@s27",
        "--random",
        "16",
        "--resume-from",
        v1.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(2), "{out}{err}");
    assert!(
        err.contains("K001") && err.contains("unsupported version 1"),
        "{err}"
    );
}

/// One stdout layout for every mode: the report, then the scheduler line
/// (every multi-shard run), then the `--stats` detail, then the summary
/// table.
#[test]
fn stats_sections_print_in_one_order_in_every_mode() {
    for cmd in ["sim", "transition"] {
        for extra in [
            &[][..],
            &["--threads", "2"][..],
            &["--threads", "2", "--batch-windows", "8"][..],
        ] {
            let mut args = vec![cmd, "@s27", "--random", "16", "--stats"];
            args.extend_from_slice(extra);
            let (ok, out, err) = fsim(&args);
            assert!(ok, "{cmd} {extra:?}: {err}");
            let at = |needle: &str| {
                out.find(needle)
                    .unwrap_or_else(|| panic!("{cmd} {extra:?}: no {needle:?} in:\n{out}"))
            };
            let report = at(" on s27: ");
            let detail = at("phase ");
            let histograms = at("fault-list length per node");
            let summary = at("events/pat");
            assert!(
                report < detail && detail < histograms && histograms < summary,
                "{cmd} {extra:?}: sections out of order:\n{out}"
            );
            if extra.contains(&"--threads") {
                let sched = at("  scheduler: ");
                assert!(report < sched && sched < detail, "{cmd} {extra:?}:\n{out}");
            }
        }
    }
}

/// A closed stdout (`fsim … | head`) ends the run quietly instead of in a
/// `failed printing to stdout` panic.
#[cfg(unix)]
#[test]
fn closed_stdout_exits_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fsim"))
        .args(["sim", "@s298g", "--random", "64", "--stats"])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("fsim runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
}

#[test]
fn sim_threads_stats_renders_merged_table() {
    let (ok, out, err) = fsim(&["sim", "@s27", "--random", "16", "--threads", "2", "--stats"]);
    assert!(ok, "{err}");
    assert!(out.contains("csim-MV-p2"), "{out}");
    assert!(out.contains("avg |F|"), "{out}");
    assert!(out.contains("fault-list length per node"), "{out}");
}

/// A netlist whose gates are wider than the macro input cap (the 11-input
/// one is wider than any cell LUT) runs under every command: none exits
/// 101.
#[test]
fn no_command_panics_on_wide_gates() {
    let wide = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/bench/wide.bench"
    );
    let pat = std::env::temp_dir().join("fsim-cli-test-wide.pat");
    let pat = pat.to_str().unwrap();
    let mut runs: Vec<Vec<&str>> = vec![
        vec!["check", wide],
        vec!["stats", wide],
        vec!["analyze", wide],
        vec!["sim", wide, "--random", "64", "--prune", "--learn"],
        vec!["transition", wide, "--random", "64"],
        vec!["explain", wide, "3", "--random", "64"],
        vec!["heatmap", wide, "--random", "64"],
        vec!["atpg", wide, "--out", pat],
    ];
    for variant in ["base", "v", "m", "mv"] {
        runs.push(vec!["sim", wide, "--random", "64", "--variant", variant]);
    }
    for args in runs {
        let (code, _, err) = fsim_code(&args);
        assert_eq!(code, Some(0), "{args:?}: {err}");
    }
}

/// `--steal` deals one shard per worker, like every sharded run: the
/// scheduler line counts `--threads` shards, and the detections are the
/// serial run's.
#[test]
fn steal_runs_deal_one_shard_per_worker() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for cmd in ["sim", "transition"] {
        let run = |extra: &[&str], file: &str| -> (String, String) {
            let det = dir.join(format!("det-{cmd}-{file}.txt"));
            let mut args = vec![cmd, "@s298g", "--random", "64", "--stats"];
            args.extend_from_slice(extra);
            args.extend_from_slice(&["--detections", det.to_str().unwrap()]);
            let (ok, out, err) = fsim(&args);
            assert!(ok, "{cmd} {extra:?}: {err}");
            (out, std::fs::read_to_string(&det).unwrap())
        };
        let (_, serial) = run(&[], "steal-serial");
        let (out, stolen) = run(&["--threads", "2", "--steal"], "steal");
        assert_eq!(stolen, serial, "{cmd}: --threads 2 --steal");
        assert!(out.contains("× 2 shards"), "{cmd}: {out}");
    }
}

#[test]
fn threads_flag_rejects_bad_values() {
    let (ok, _, err) = fsim(&["sim", "@s27", "--threads", "0"]);
    assert!(!ok);
    assert!(err.contains("--threads must be at least 1"), "{err}");
    let (ok, _, err) = fsim(&["sim", "@s27", "--random", "4", "--threads", "50000"]);
    assert!(!ok);
    assert!(err.contains("--threads must be at most 256"), "{err}");
    let (ok, _, err) = fsim(&["sim", "@s27", "--threads", "2", "--simulator", "proofs"]);
    assert!(!ok);
    assert!(
        err.contains("--threads needs the concurrent simulator"),
        "{err}"
    );
}

#[test]
fn transition_stats_json_runs() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("transition-stats.jsonl");
    let (ok, out, err) = fsim(&[
        "transition",
        "@s27",
        "--random=4",
        "--stats",
        "--stats-json",
        json.to_str().unwrap(),
        "--trace-every",
        "2",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("transition_first"), "{out}");
    assert!(out.contains("pattern"), "{out}");
    let text = std::fs::read_to_string(&json).unwrap();
    assert_eq!(text.lines().count(), 5, "4 pattern records + 1 summary");
    let last = JsonValue::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(
        last.get("type").and_then(JsonValue::as_str),
        Some("summary")
    );
    assert_eq!(
        last.get("simulator").and_then(JsonValue::as_str),
        Some("csim-T")
    );
}

/// The ISSUE acceptance scenario: `fsim check` passes clean circuits and
/// fails netlists with error-severity findings, in both output formats.
#[test]
fn check_clean_builtin_passes() {
    let (ok, out, err) = fsim(&["check", "@s27"]);
    assert!(ok, "{err}");
    assert!(out.contains("0 error(s)"), "{out}");
    let (ok, out, err) = fsim(&["check", "@s298g", "--format", "json"]);
    assert!(ok, "{err}");
    assert!(out.contains("\"errors\":0"), "{out}");
}

#[test]
fn check_bad_netlist_fails_with_rule_codes() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("bad-check.bench");
    std::fs::write(
        &bench,
        "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\nz = NOT(z)\n",
    )
    .unwrap();
    let (ok, out, err) = fsim(&["check", bench.to_str().unwrap()]);
    assert!(!ok);
    assert!(out.contains("N002"), "{out}");
    assert!(out.contains("undriven-net"), "{out}");
    assert!(out.contains("N001"), "{out}");
    assert!(out.contains("line 3:12"), "{out}");
    assert!(err.contains("2 error(s)"), "{err}");

    let (ok, out, _) = fsim(&["check", bench.to_str().unwrap(), "--format", "json"]);
    assert!(!ok);
    let v = JsonValue::parse(out.trim()).expect("valid JSON report");
    assert_eq!(v.get("errors").and_then(JsonValue::as_u64), Some(2));
    let diags = out.matches("\"code\":").count();
    assert_eq!(diags, 3, "two errors plus the N004 warning: {out}");
}

/// Every command that reads a circuit reads it through the checked front
/// end: a broken netlist is refused (exit 1) with `fsim check`'s
/// diagnostics on stderr, before any output file is written.
#[test]
fn every_command_refuses_a_broken_netlist() {
    let dir = std::env::temp_dir().join("fsim-cli-refusal");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("broken.bench");
    std::fs::write(&bench, "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap();
    let bad = bench.to_str().unwrap();
    let out = dir.join("out.txt");
    let out = out.to_str().unwrap();
    let runs: [&[&str]; 11] = [
        &["sim", bad, "--random", "4", "--detections", out],
        &["transition", bad, "--random", "4", "--detections", out],
        &["explain", bad, "0", "--random", "4"],
        &["heatmap", bad, "--random", "4"],
        &["stats", bad],
        &["analyze", bad],
        &["implications", bad, "a"],
        &["impact", bad, "@s27"],
        &["impact", "@s27", bad],
        &["atpg", bad, "--out", out],
        &["mutate", bad, "--edit", "retype", "--out", out],
    ];
    for args in runs {
        let _ = std::fs::remove_file(out);
        let (code, stdout, err) = fsim_code(args);
        assert_eq!(code, Some(1), "{args:?}: {stdout}{err}");
        assert!(
            err.contains("N002 [undriven-net] line 3:12"),
            "{args:?}: {err}"
        );
        assert!(
            err.ends_with(&format!("fsim: {bad}: 1 error(s)\n")),
            "{args:?}: {err}"
        );
        assert!(!std::path::Path::new(out).exists(), "{args:?} wrote {out}");
    }
    // The preflight switch is gone: an unknown flag, refused before the
    // netlist loads.
    for cmd in ["sim", "transition", "explain", "heatmap"] {
        let args: &[&str] = if cmd == "explain" {
            &["explain", "@s27", "0", "--no-check"]
        } else {
            &[cmd, "@s27", "--no-check"]
        };
        let (code, stdout, err) = fsim_code(args);
        assert_eq!(code, Some(1), "{cmd}: {stdout}{err}");
        assert_eq!(
            err,
            format!("fsim: {cmd}: unknown flag --no-check (try --help)\n")
        );
    }
}

#[test]
fn paranoid_runs_clean_on_all_paths() {
    let (ok, _, err) = fsim(&["sim", "@s27", "--random", "16", "--paranoid"]);
    assert!(ok, "{err}");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s27",
        "--random",
        "16",
        "--paranoid",
        "--threads",
        "2",
    ]);
    assert!(ok, "{err}");
    let (ok, _, err) = fsim(&["transition", "@s27", "--random", "16", "--paranoid"]);
    assert!(ok, "{err}");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s27",
        "--random",
        "4",
        "--paranoid",
        "--simulator",
        "serial",
    ]);
    assert!(!ok);
    assert!(err.contains("--paranoid needs the concurrent"), "{err}");
}

#[test]
fn stats_phase_table_includes_check_time() {
    let (ok, out, err) = fsim(&["sim", "@s27", "--random", "8", "--stats"]);
    assert!(ok, "{err}");
    assert!(out.contains("check"), "check phase in table: {out}");
}

/// The ISSUE acceptance scenario: a traced 4-thread run writes valid
/// Chrome Trace JSON with one track per shard, pattern spans, and at
/// least one divergence/convergence pair — without touching detections.
#[test]
fn trace_out_writes_valid_chrome_trace_without_perturbing_detections() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let plain_det = dir.join("trace-plain-det.txt");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s298g",
        "--random",
        "64",
        "--detections",
        plain_det.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");

    let trace = dir.join("run.trace.json");
    let traced_det = dir.join("trace-traced-det.txt");
    let (ok, out, err) = fsim(&[
        "sim",
        "@s298g",
        "--random",
        "64",
        "--threads",
        "4",
        "--trace-out",
        trace.to_str().unwrap(),
        "--detections",
        traced_det.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("wrote trace to"), "{out}");
    assert_eq!(
        std::fs::read_to_string(&traced_det).unwrap(),
        std::fs::read_to_string(&plain_det).unwrap(),
        "tracing perturbed the detection dump"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let stats = cfs_trace::validate_chrome_trace(&text).expect("valid Chrome Trace JSON");
    assert_eq!(
        stats.metadata, 9,
        "process name + 4 shard tracks + 4 worker tracks"
    );
    assert!(stats.pattern_spans >= 64 * 4, "{stats:?}");
    assert!(stats.divergences > 0, "{stats:?}");
    assert!(stats.convergences > 0, "{stats:?}");
    assert!(stats.counters > 0, "{stats:?}");
}

#[test]
fn trace_out_works_for_transition_faults() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("transition.trace.json");
    let (ok, out, err) = fsim(&[
        "transition",
        "@s27",
        "--random",
        "32",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("wrote trace to"), "{out}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let stats = cfs_trace::validate_chrome_trace(&text).expect("valid Chrome Trace JSON");
    assert!(stats.pattern_spans >= 32, "{stats:?}");
}

#[test]
fn trace_out_rejects_unsupported_modes() {
    let (ok, _, err) = fsim(&[
        "sim",
        "@s27",
        "--random",
        "4",
        "--simulator",
        "proofs",
        "--trace-out",
        "/tmp/never-written.json",
    ]);
    assert!(!ok);
    assert!(err.contains("--trace-out needs the concurrent"), "{err}");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s27",
        "--random",
        "4",
        "--variant",
        "all",
        "--trace-out",
        "/tmp/never-written.json",
    ]);
    assert!(!ok);
    assert!(err.contains("single --variant"), "{err}");
}

/// The ISSUE acceptance scenario: `fsim explain` prints the excitation →
/// propagation → detection timeline of one fault.
#[test]
fn explain_prints_fault_timeline_with_verdict() {
    let (code, out, err) = fsim_code(&["explain", "@s298g", "3", "--random", "64", "--seed", "7"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("fault 3: output of pi1 stuck at 1"), "{out}");
    assert!(out.contains("replayed 64 patterns"), "{out}");
    assert!(out.contains("diverged at"), "{out}");
    assert!(
        out.contains("verdict: detected at pattern 13 at output tl5"),
        "{out}"
    );
}

#[test]
fn explain_unknown_fault_id_exits_2_with_diagnostic() {
    let (code, _, err) = fsim_code(&["explain", "@s298g", "99999"]);
    assert_eq!(code, Some(2), "diagnostic exit code");
    assert!(err.contains("E001 [unknown-fault-id]"), "{err}");
    assert!(err.contains("valid ids: 0..306"), "{err}");
}

#[test]
fn explain_statically_untestable_fault_exits_2_with_diagnostic() {
    // Fault 130 of s298g (output of n34 s-a-1) is provably unexcitable.
    let (code, _, err) = fsim_code(&["explain", "@s298g", "130", "--random", "4"]);
    assert_eq!(code, Some(2), "diagnostic exit code");
    assert!(err.contains("F002 [statically-untestable-fault]"), "{err}");
    assert!(err.contains("never be excited"), "{err}");
    assert!(err.contains("no pattern sequence can detect it"), "{err}");
}

#[test]
fn heatmap_renders_text_table_and_json() {
    let (ok, out, err) = fsim(&[
        "heatmap", "@s298g", "--random", "32", "--seed", "5", "--top", "5",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("fault-list activity of s298g"), "{out}");
    assert!(out.contains("diverge"), "{out}");
    assert!(out.contains("more active node(s)"), "{out}");

    let (ok, out, err) = fsim(&[
        "heatmap", "@s298g", "--random", "32", "--seed", "5", "--format", "json",
    ]);
    assert!(ok, "{err}");
    let v = JsonValue::parse(out.trim()).expect("valid heatmap JSON");
    assert_eq!(v.get("circuit").and_then(JsonValue::as_str), Some("s298g"));
    let nodes = v.get("nodes").and_then(JsonValue::as_arr).unwrap();
    assert!(!nodes.is_empty(), "{out}");
    for n in nodes {
        assert!(n.get("name").and_then(JsonValue::as_str).is_some());
        assert!(n.get("total").and_then(JsonValue::as_u64).is_some());
    }
}

/// `fsim analyze --format json` must carry the same dominance-collapse
/// numbers as the text rendering — the JSON path is what CI dashboards
/// consume, so a field silently dropped there would go unnoticed.
#[test]
fn analyze_json_dominance_matches_text() {
    let (ok, out, err) = fsim(&["analyze", "@s298g", "--format", "json"]);
    assert!(ok, "{err}");
    let v = JsonValue::parse(out.trim()).expect("valid analyze JSON");
    let dom = v.get("dominance").expect("dominance object in JSON");
    let edges = dom.get("edges").and_then(JsonValue::as_u64).unwrap();
    let kept = dom.get("kept").and_then(JsonValue::as_u64).unwrap();
    let classes = dom.get("classes").and_then(JsonValue::as_u64).unwrap();
    assert!(dom.get("dropped").and_then(JsonValue::as_u64).is_some());
    assert!(kept <= classes, "{out}");

    let (ok, text, err) = fsim(&["analyze", "@s298g"]);
    assert!(ok, "{err}");
    let line = text
        .lines()
        .find(|l| l.starts_with("dominance:"))
        .expect("dominance line in text output");
    assert!(
        line.contains(&format!("{edges} edge(s)")),
        "text {line:?} vs JSON edges {edges}"
    );
    assert!(
        line.contains(&format!("{kept} of {classes} classes kept")),
        "text {line:?} vs JSON kept {kept}/{classes}"
    );
}

#[test]
fn rules_lists_the_registry_and_filters_by_code_or_slug() {
    let (ok, out, err) = fsim(&["rules"]);
    assert!(ok, "{err}");
    // Checker, analyzer, and CLI-layer codes all come from one registry.
    for needle in [
        "S001",
        "F004",
        "F005",
        "K002",
        "E003",
        "V001",
        "conflict-untestable-fault",
        "pattern-invalid",
    ] {
        assert!(out.contains(needle), "{needle} missing from:\n{out}");
    }
    let (ok, by_code, err) = fsim(&["rules", "F004"]);
    assert!(ok, "{err}");
    assert_eq!(by_code.lines().count(), 1, "{by_code}");
    assert!(by_code.contains("conflict-untestable-fault"), "{by_code}");
    let (ok, by_slug, err) = fsim(&["rules", "conflict-untestable-fault"]);
    assert!(ok, "{err}");
    assert_eq!(by_code, by_slug, "code and slug filters agree");

    let (ok, json, err) = fsim(&["rules", "--format", "json"]);
    assert!(ok, "{err}");
    let v = JsonValue::parse(json.trim()).expect("valid rules JSON");
    let rows = v.as_arr().expect("rules JSON is an array");
    assert_eq!(rows.len(), out.lines().count(), "JSON and text row counts");
    for r in rows {
        assert!(r.get("code").and_then(JsonValue::as_str).is_some());
        assert!(r.get("slug").and_then(JsonValue::as_str).is_some());
        assert!(r.get("severity").and_then(JsonValue::as_str).is_some());
        assert!(r.get("description").and_then(JsonValue::as_str).is_some());
    }
}

#[test]
fn rules_unknown_code_exits_2_with_e002() {
    let (code, _, err) = fsim_code(&["rules", "F999"]);
    assert_eq!(code, Some(2), "diagnostic exit code");
    assert!(err.contains("E002 [unknown-rule-code]"), "{err}");
}

#[test]
fn implications_dumps_cross_frame_facts_in_text_and_json() {
    let (ok, out, err) = fsim(&["implications", "@s27", "G10"]);
    assert!(ok, "{err}");
    assert!(out.contains("implications of s27 net \"G10\""), "{out}");
    assert!(out.contains("@t+1"), "cross-frame fact expected:\n{out}");
    assert!(
        out.contains("facts are guaranteed at steady-state cycles t >= 2"),
        "{out}"
    );

    let (ok, json, err) = fsim(&["implications", "@s27", "G10", "--format", "json"]);
    assert!(ok, "{err}");
    let v = JsonValue::parse(json.trim()).expect("valid implications JSON");
    assert_eq!(v.get("circuit").and_then(JsonValue::as_str), Some("s27"));
    assert_eq!(v.get("net").and_then(JsonValue::as_str), Some("G10"));
    assert_eq!(v.get("frames").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(
        v.get("valid_from_cycle").and_then(JsonValue::as_u64),
        Some(2)
    );
    let imps = v.get("implications").and_then(JsonValue::as_arr).unwrap();
    assert!(!imps.is_empty(), "{json}");
    for imp in imps {
        assert!(imp.get("target").and_then(JsonValue::as_str).is_some());
        assert!(imp.get("delta").and_then(JsonValue::as_f64).is_some());
    }
}

/// `.bench` names may hold `"` and `\`: the JSON writers escape the
/// circuit (file stem), the queried net and every target name.
#[test]
fn implications_and_rules_json_escape_quoted_names() {
    let dir = std::env::temp_dir().join("fsim-cli-quoted");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("q\"x.bench");
    std::fs::write(
        &bench,
        "INPUT(a\"b)\nINPUT(c\\d)\nOUTPUT(y)\ny = AND(a\"b, c\\d)\n",
    )
    .unwrap();
    let path = bench.to_str().unwrap();
    for (net, target) in [("y", "a\"b"), ("a\"b", "y"), ("y", "c\\d")] {
        let (ok, json, err) = fsim(&["implications", path, net, "--format", "json"]);
        assert!(ok, "{err}");
        let v = JsonValue::parse(json.trim()).expect("valid implications JSON");
        assert_eq!(v.get("circuit").and_then(JsonValue::as_str), Some("q\"x"));
        assert_eq!(v.get("net").and_then(JsonValue::as_str), Some(net));
        let imps = v.get("implications").and_then(JsonValue::as_arr).unwrap();
        assert!(
            imps.iter()
                .any(|i| i.get("target").and_then(JsonValue::as_str) == Some(target)),
            "{net} implies {target}: {json}"
        );
    }
    let (ok, json, err) = fsim(&["rules", "--format", "json"]);
    assert!(ok, "{err}");
    JsonValue::parse(json.trim()).expect("valid rules JSON");
}

#[test]
fn implications_unknown_net_exits_2_with_e003() {
    let (code, _, err) = fsim_code(&["implications", "@s27", "nope"]);
    assert_eq!(code, Some(2), "diagnostic exit code");
    assert!(err.contains("E003 [unknown-net]"), "{err}");
}

#[test]
fn analyze_learn_reports_conflicts_in_text_and_json() {
    let (ok, out, err) = fsim(&["analyze", "@s298g", "--learn"]);
    assert!(ok, "{err}");
    assert!(out.contains("implication learning:"), "{out}");
    assert!(out.contains("conflict-untestable"), "{out}");
    assert!(out.contains("F004 [conflict-untestable-fault]"), "{out}");
    assert!(out.contains("F005 [implication-dominance]"), "{out}");

    let (ok, json, err) = fsim(&["analyze", "@s298g", "--learn", "--format", "json"]);
    assert!(ok, "{err}");
    let v = JsonValue::parse(json.trim()).expect("valid analyze JSON");
    let learn = v.get("learn").expect("learn object in JSON");
    assert_eq!(learn.get("frames").and_then(JsonValue::as_u64), Some(2));
    assert!(
        learn
            .get("direct_edges")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    assert!(
        learn
            .get("learned_edges")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    assert!(learn
        .get("dominance_pairs")
        .and_then(JsonValue::as_u64)
        .is_some());
    let stuck = v.get("stuck").expect("stuck object");
    assert!(
        stuck.get("conflict").and_then(JsonValue::as_u64).unwrap() > 0,
        "{json}"
    );
    let transition = v.get("transition").expect("transition object");
    assert!(
        transition
            .get("conflict")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0,
        "{json}"
    );
}

#[test]
fn sim_learn_requires_prune() {
    let (ok, _, err) = fsim(&["sim", "@s27", "--random", "4", "--learn"]);
    assert!(!ok);
    assert!(err.contains("--learn extends --prune"), "{err}");
    let (ok, _, err) = fsim(&["sim", "@s27", "--random", "4", "--learn-frames", "3"]);
    assert!(!ok);
    assert!(err.contains("--learn-frames needs --learn"), "{err}");
}

#[test]
fn sim_learn_detections_match_full_run() {
    let dir = std::env::temp_dir().join("fsim-cli-learn-test");
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.txt");
    let learned = dir.join("learned.txt");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s298g",
        "--random",
        "48",
        "--uncollapsed",
        "--detections",
        full.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let (ok, out, err) = fsim(&[
        "sim",
        "@s298g",
        "--random",
        "48",
        "--prune",
        "--learn",
        "--detections",
        learned.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("conflict-untestable"), "{out}");
    assert_eq!(
        std::fs::read_to_string(&full).unwrap(),
        std::fs::read_to_string(&learned).unwrap(),
        "learned detections diverge from the full run"
    );
}

#[test]
fn mutate_applies_deterministic_edit() {
    let (ok, out, err) = fsim(&["mutate", "@s27", "--edit", "retype", "--choice", "1"]);
    assert!(ok, "{err}");
    assert!(err.contains("retyped"), "{err}");
    let (_, out2, _) = fsim(&["mutate", "@s27", "--edit", "retype", "--choice", "1"]);
    assert_eq!(out, out2, "same (circuit, choice) must give the same edit");
    let (ok, _, err) = fsim(&["mutate", "@s27", "--edit", "frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown edit"), "{err}");
}

#[test]
fn impact_reports_transfer_split_in_text_and_json() {
    let dir = std::env::temp_dir().join("fsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let edited = dir.join("impact-dead.bench");
    let (ok, _, err) = fsim(&[
        "mutate",
        "@s298g",
        "--edit",
        "dead-logic",
        "--out",
        edited.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let (ok, out, err) = fsim(&["impact", "@s298g", edited.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("added"), "{out}");
    assert!(out.contains("faults affected"), "{out}");
    assert!(out.contains("I001 [cone-disconnected-edit]"), "{out}");

    let (ok, out, err) = fsim(&[
        "impact",
        "@s298g",
        edited.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(ok, "{err}");
    let v = JsonValue::parse(out.trim()).expect("valid impact JSON");
    assert_eq!(v.get("base").and_then(JsonValue::as_str), Some("s298g"));
    let edits = v
        .get("diff")
        .and_then(|d| d.get("edits"))
        .and_then(JsonValue::as_arr)
        .unwrap();
    assert_eq!(edits.len(), 2, "{out}");
    for model in ["stuck", "transition"] {
        let m = v.get(model).expect("model stats");
        let full = m.get("full").and_then(JsonValue::as_u64).unwrap();
        let affected = m.get("affected").and_then(JsonValue::as_u64).unwrap();
        let transferred = m.get("transferred").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(affected + transferred, full, "{model}: {out}");
        assert!(affected < full, "dead logic affects a strict subset: {out}");
    }
    let findings = v.get("findings").expect("findings report");
    assert_eq!(findings.get("errors").and_then(JsonValue::as_u64), Some(0));
}

/// The full incremental loop through the binary: record a baseline, apply
/// a scripted edit, re-simulate incrementally, and require byte-identical
/// detections against a cold full run — for both fault models, serial and
/// sharded, with the paranoid cross-check on.
#[test]
fn incremental_detections_match_cold_full_run() {
    let dir = std::env::temp_dir().join("fsim-cli-incr");
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let edited = p("edited.bench");
    let (ok, _, err) = fsim(&["mutate", "@s298g", "--edit", "dead-logic", "--out", &edited]);
    assert!(ok, "{err}");

    for (cmd, extra) in [("sim", Some("--uncollapsed")), ("transition", None)] {
        let baseline = p(&format!("{cmd}-base.json"));
        let mut args = vec![cmd, "@s298g", "--seed", "7", "--baseline-out", &baseline];
        if let Some(f) = extra {
            args.push(f);
        }
        let (ok, _, err) = fsim(&args);
        assert!(ok, "{cmd} baseline: {err}");

        let cold = p(&format!("{cmd}-cold.txt"));
        let mut args = vec![cmd, edited.as_str(), "--seed", "7", "--detections", &cold];
        if let Some(f) = extra {
            args.push(f);
        }
        let (ok, _, err) = fsim(&args);
        assert!(ok, "{cmd} cold: {err}");

        for threads in ["1", "4"] {
            let incr = p(&format!("{cmd}-incr-{threads}.txt"));
            let (ok, out, err) = fsim(&[
                cmd,
                &edited,
                "--seed",
                "7",
                "--incremental",
                "--baseline-report",
                &baseline,
                "--threads",
                threads,
                "--paranoid",
                "--detections",
                &incr,
            ]);
            assert!(ok, "{cmd} incremental t{threads}: {err}");
            assert!(out.contains("incremental:"), "{out}");
            assert!(
                out.contains("paranoid: all") && out.contains("agree with a cold full re-run"),
                "{out}"
            );
            assert_eq!(
                std::fs::read(&cold).unwrap(),
                std::fs::read(&incr).unwrap(),
                "{cmd} t{threads}: incremental detections must be byte-identical"
            );
        }
    }
}

/// A baseline recorded under different stimulus must be refused with the
/// I002 diagnostic (exit 2), not silently transferred.
#[test]
fn incremental_rejects_stale_baseline_with_i002() {
    let dir = std::env::temp_dir().join("fsim-cli-incr");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("stale-base.json");
    let (ok, _, err) = fsim(&[
        "sim",
        "@s27",
        "--uncollapsed",
        "--seed",
        "3",
        "--baseline-out",
        baseline.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let (code, _, err) = fsim_code(&[
        "sim",
        "@s27",
        "--seed",
        "4",
        "--incremental",
        "--baseline-report",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(2), "diagnostic exit: {err}");
    assert!(err.contains("I002 [baseline-invalidated]"), "{err}");
}

/// `fsim --help` is rendered from the flag table, so every flag `sim` and
/// `transition` accept appears in their usage block.
#[test]
fn help_lists_every_run_flag() {
    let (ok, _, err) = fsim(&["--help"]);
    assert!(ok);
    for cmd in ["sim", "transition"] {
        let start = err
            .find(&format!("  fsim {cmd} "))
            .unwrap_or_else(|| panic!("no {cmd} usage in:\n{err}"));
        let block = &err[start..];
        let block = &block[..block[1..].find("\n  fsim ").map_or(block.len(), |e| e + 1)];
        for flag in [
            "[--seed N]",
            "[--learn]",
            "[--learn-frames N]",
            "[--patterns FILE]",
            "[--paranoid]",
        ] {
            assert!(block.contains(flag), "{cmd} usage lacks {flag}:\n{block}");
        }
    }
}

/// An unknown `--simulator` is a bad value, rejected by the parse before
/// any preflight, pattern load, or output file — and before any rule can
/// blame another flag for it.
#[test]
fn unknown_simulator_is_rejected_before_any_work() {
    let dir = std::env::temp_dir().join("fsim-cli-parse");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("never.jsonl");
    let _ = std::fs::remove_file(&json);
    for extra in [&[][..], &["--prune"][..]] {
        let mut args = vec!["sim", "@s27", "--random", "4", "--simulator", "bogus"];
        args.extend_from_slice(&["--stats-json", json.to_str().unwrap()]);
        args.extend_from_slice(extra);
        let (code, out, err) = fsim_code(&args);
        assert_eq!(code, Some(1), "{extra:?}: {err}");
        assert!(err.contains("unknown simulator \"bogus\""), "{err}");
        assert!(!err.contains("--prune"), "{err}");
        assert!(out.is_empty(), "{out}");
        assert!(
            !json.exists(),
            "{extra:?}: the run created its telemetry file"
        );
    }
}

/// Combinations whose second flag used to be silently dropped are refused
/// up front, with exit status 1 and nothing run.
#[test]
fn silently_ignored_combinations_are_refused() {
    let dir = std::env::temp_dir().join("fsim-cli-parse");
    std::fs::create_dir_all(&dir).unwrap();
    let pats = dir.join("s27.pat");
    std::fs::write(&pats, "0101\n1010\n").unwrap();
    let pats = pats.to_str().unwrap();
    let cases: [(&[&str], &str); 9] = [
        (
            &["sim", "@s27", "--patterns", pats, "--random", "50"],
            "--patterns FILE cannot combine with --random/--seed",
        ),
        (
            &["transition", "@s27", "--patterns", pats, "--seed", "3"],
            "--patterns FILE cannot combine with --random/--seed",
        ),
        (
            &["heatmap", "@s27", "--patterns", pats, "--random", "8"],
            "--patterns FILE cannot combine with --random/--seed",
        ),
        (
            &["sim", "@s27", "--trace-capacity", "64"],
            "--trace-capacity needs --trace-out",
        ),
        (
            &["sim", "@s27", "--simulator", "proofs", "--trace-every", "4"],
            "--trace-every needs the concurrent simulator, not \"proofs\"",
        ),
        (
            &["sim", "@s27", "--simulator", "proofs", "--variant", "m"],
            "--variant needs the concurrent simulator, not \"proofs\"",
        ),
        (
            &["sim", "@s27", "--threads", "1", "--batch-windows", "8"],
            "--batch-windows and --steal schedule shards across workers",
        ),
        (
            &["transition", "@s27", "--threads", "1", "--steal"],
            "--batch-windows and --steal schedule shards across workers",
        ),
        (
            &["sim", "@s27", "--simulator", "serial", "--steal"],
            "--steal needs the concurrent simulator, not \"serial\"",
        ),
    ];
    for (args, needle) in cases {
        let (code, out, err) = fsim_code(args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with(&format!("fsim: {needle}")),
            "{args:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
    }
}

/// The pairwise smoke matrix over the feature flags, for both fault
/// models on @s298g with 64 patterns: every pair either runs — and then
/// writes the detections of the plain serial run that reports the same
/// universe — or is refused up front with one message and exit status 1.
/// `--simulator` stays out (PROOFS may legitimately differ from csim on
/// X-state flip-flop faults), as does `--incremental` (covered by
/// `incremental_detections_match_cold_full_run`).
#[test]
fn feature_flag_pairs_match_serial_or_are_refused() {
    let dir = std::env::temp_dir().join("fsim-cli-matrix");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (ckpts, trace, baseline) = (p("ckpts"), p("run.trace.json"), p("base.json"));
    let features: [(&str, Vec<&str>); 13] = [
        ("prune", vec!["--prune"]),
        ("learn", vec!["--prune", "--learn"]),
        ("uncollapsed", vec!["--uncollapsed"]),
        ("variant-all", vec!["--variant", "all"]),
        ("threads", vec!["--threads", "2"]),
        ("batched", vec!["--threads", "2", "--batch-windows", "8"]),
        (
            "steal",
            vec!["--threads", "2", "--batch-windows", "8", "--steal"],
        ),
        ("threads-steal", vec!["--threads", "2", "--steal"]),
        (
            "checkpoint",
            vec!["--checkpoint-every", "16", "--checkpoint-out", &ckpts],
        ),
        ("trace-out", vec!["--trace-out", &trace]),
        ("stats", vec!["--stats"]),
        ("baseline-out", vec!["--baseline-out", &baseline]),
        ("paranoid", vec!["--paranoid"]),
    ];
    let expected_refusals = |cmd: &str| -> Vec<&str> {
        if cmd == "transition" {
            return vec![
                "threads+checkpoint",
                "batched+checkpoint",
                "steal+checkpoint",
                "threads-steal+checkpoint",
                "checkpoint+trace-out",
            ];
        }
        vec![
            "prune+uncollapsed",
            "learn+uncollapsed",
            "variant-all+checkpoint",
            "variant-all+trace-out",
            "variant-all+baseline-out",
            "threads+checkpoint",
            "threads+baseline-out",
            "batched+checkpoint",
            "batched+baseline-out",
            "steal+checkpoint",
            "steal+baseline-out",
            "threads-steal+checkpoint",
            "threads-steal+baseline-out",
            "checkpoint+trace-out",
            "checkpoint+baseline-out",
            "trace-out+baseline-out",
            "stats+baseline-out",
            "baseline-out+paranoid",
        ]
    };
    for cmd in ["sim", "transition"] {
        let detections = |tag: &str, extra: &[&str]| -> Result<Option<String>, String> {
            let det = p(&format!("{cmd}-{tag}.txt"));
            let mut args = vec![cmd, "@s298g", "--random", "64"];
            args.extend_from_slice(extra);
            // `--variant all` runs four machines and writes no detections.
            let writes = !extra.contains(&"all");
            if writes {
                args.extend_from_slice(&["--detections", &det]);
            }
            match fsim_code(&args) {
                (Some(0), ..) if writes => Ok(Some(std::fs::read_to_string(&det).unwrap())),
                (Some(0), ..) => Ok(None),
                (Some(1), out, err) => {
                    assert!(out.is_empty(), "{args:?} ran before refusing: {out}");
                    assert!(
                        err.starts_with("fsim: ") && err.lines().count() == 1,
                        "{args:?}: not one refusal: {err}"
                    );
                    Err(err)
                }
                (code, _, err) => panic!("{args:?}: exit {code:?}: {err}"),
            }
        };
        let collapsed = detections("plain", &[]).unwrap().unwrap();
        let full = match cmd {
            "sim" => detections("full", &["--uncollapsed"]).unwrap().unwrap(),
            _ => collapsed.clone(),
        };
        let feats: Vec<_> = features
            .iter()
            .filter(|(tag, _)| cmd == "sim" || !matches!(*tag, "uncollapsed" | "variant-all"))
            .collect();
        let mut refused = Vec::new();
        for (i, (a, flags_a)) in feats.iter().enumerate() {
            for (b, flags_b) in &feats[i + 1..] {
                let pair = format!("{a}+{b}");
                let extra = [&flags_a[..], &flags_b[..]].concat();
                match detections(&pair, &extra) {
                    Ok(Some(det)) => {
                        let reports_full = cmd == "transition"
                            || extra.contains(&"--prune")
                            || extra.contains(&"--uncollapsed");
                        let reference = if reports_full { &full } else { &collapsed };
                        assert_eq!(&det, reference, "{cmd} {pair} diverged from serial");
                    }
                    Ok(None) => {}
                    Err(_) => refused.push(pair),
                }
            }
        }
        assert_eq!(refused, expected_refusals(cmd), "{cmd}: refused pairs");
    }
}
