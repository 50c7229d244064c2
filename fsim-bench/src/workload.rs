//! The four workloads: their circuits, seeded pattern files, and the
//! `fsim` command lines that run and cross-check them.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cfs_faults::{collapse_stuck_at, FaultSite};
use cfs_netlist::generate::{benchmark_spec, generate};
use cfs_netlist::{parse_bench, write_bench, GateKind};

use crate::stats::Fnv1a;

/// Which `fsim` subcommand a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `fsim sim` (stuck-at, csim-MV).
    Stuck,
    /// `fsim transition`.
    Transition,
}

/// The independent path a seed other than the pinned one is checked
/// against; it must reproduce the workload's detections byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossCheck {
    /// `--simulator proofs`: the PROOFS baseline.
    Proofs,
    /// The same model without `--threads`/`--batch-windows`/`--steal`.
    Serial,
    /// `--prune` without `--learn`: conflict-pruned faults are simulated
    /// and must come out undetected.
    PruneOnly,
}

/// One workload: a fixed set of circuits, a pattern count, and flags.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Subcommand.
    pub model: Model,
    /// `(ISCAS-89-alike name, size ratio)`; one `fsim` call per circuit.
    pub circuits: &'static [(&'static str, f64)],
    /// Patterns per circuit, drawn from the seed.
    pub patterns: usize,
    /// `--prune --learn`.
    pub learn: bool,
    /// Worker threads; above 1 adds `--batch-windows 32 --steal`.
    pub threads: usize,
    /// Independent path for seeds without pinned results.
    pub cross_check: CrossCheck,
    /// Detected count and detections-file FNV-1a for seed 1.
    pub pinned: (usize, u64),
}

/// Pattern window of the sharded workload (`--batch-windows`).
pub const BATCH_WINDOW: usize = 32;

/// The Table 3 circuits below s5378g, in table order.
const TABLE3_SMALL: &[(&str, f64)] = &[
    ("s298g", 1.0),
    ("s344g", 1.0),
    ("s349g", 1.0),
    ("s386g", 1.0),
    ("s400g", 1.0),
    ("s444g", 1.0),
    ("s526g", 1.0),
    ("s641g", 1.0),
    ("s713g", 1.0),
    ("s820g", 1.0),
    ("s832g", 1.0),
    ("s1196g", 1.0),
    ("s1238g", 1.0),
    ("s1423g", 1.0),
    ("s1488g", 1.0),
    ("s1494g", 1.0),
];

/// Every workload, in the order runs interleave them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "stuck-large",
        model: Model::Stuck,
        circuits: &[("s35932g", 1.0)],
        patterns: 512,
        learn: false,
        threads: 1,
        cross_check: CrossCheck::Proofs,
        pinned: (18621, 0x25e5_f753_a68d_e518),
    },
    Workload {
        name: "stuck-learned",
        model: Model::Stuck,
        circuits: &[("s5378g", 0.25)],
        patterns: 1024,
        learn: true,
        threads: 1,
        cross_check: CrossCheck::PruneOnly,
        pinned: (1929, 0x89be_e3b1_177f_43e4),
    },
    Workload {
        name: "transition-sharded",
        model: Model::Transition,
        circuits: &[("s35932g", 1.0)],
        patterns: 128,
        learn: false,
        threads: 2,
        cross_check: CrossCheck::Serial,
        pinned: (12051, 0xe7eb_79fe_fc81_ed86),
    },
    Workload {
        name: "small-sweep",
        model: Model::Stuck,
        circuits: TABLE3_SMALL,
        patterns: 384,
        learn: false,
        threads: 1,
        cross_check: CrossCheck::Proofs,
        pinned: (6591, 0xf5e0_dc32_42d8_672c),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Text of one circuit's `.bench` file: a function of the name and ratio
/// only, never of the seed.
pub fn bench_text(name: &str, ratio: f64) -> String {
    let spec = benchmark_spec(name).unwrap_or_else(|| panic!("unknown benchmark {name:?}"));
    let spec = if ratio < 1.0 {
        spec.scaled(ratio)
    } else {
        spec
    };
    write_bench(&generate(&spec))
}

/// File stem of a circuit: `s35932g`, or `s5378g@0.25` when scaled.
pub fn circuit_stem(name: &str, ratio: f64) -> String {
    if ratio < 1.0 {
        format!("{name}@{ratio}")
    } else {
        name.to_owned()
    }
}

/// A pattern file of `count` random `0`/`1` vectors over `inputs` primary
/// inputs, drawn from a SplitMix64 stream keyed by `seed` and `stream`.
/// `count == 0` gives the header-only file the set-up runs use.
pub fn patterns_text(inputs: usize, count: usize, seed: u64, stream: &str) -> String {
    let mut key = Fnv1a::default();
    key.update(stream.as_bytes());
    let mut rng = SplitMix64(seed ^ key.finish());
    let mut text = format!("# fsim-bench {stream} seed {seed}: {count} patterns\n");
    text.reserve(count * (inputs + 1));
    for _ in 0..count {
        let mut bits = 0u64;
        for i in 0..inputs {
            if i % 64 == 0 {
                bits = rng.next();
            }
            text.push(if bits & 1 == 1 { '1' } else { '0' });
            bits >>= 1;
        }
        text.push('\n');
    }
    text
}

/// SplitMix64 (Steele, Lea and Flood): tiny, seedable, and independent of
/// the repository's own RNG, so inputs stay fixed for a given seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One circuit of a workload with its files on disk.
#[derive(Debug, Clone)]
pub struct Job {
    /// Circuit name as the CLI derives it (the file stem).
    pub stem: String,
    /// The `.bench` file.
    pub bench: PathBuf,
    /// The seeded pattern file.
    pub patterns: PathBuf,
    /// Header-only pattern file for set-up runs.
    pub empty: PathBuf,
    /// Where the timed invocations write `--detections`.
    pub detections: PathBuf,
    /// Where the untimed cross-check writes its detections.
    pub reference: PathBuf,
}

/// The text of one circuit's inputs.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    /// File stem of the circuit.
    pub stem: String,
    /// `.bench` netlist.
    pub bench: String,
    /// `w.patterns` seeded vectors.
    pub patterns: String,
    /// Header only.
    pub empty: String,
}

/// Every input file a workload needs, as text: a pure function of the
/// workload and the seed.
pub fn inputs(w: &Workload, seed: u64) -> Vec<Inputs> {
    w.circuits
        .iter()
        .map(|&(name, ratio)| {
            let stem = circuit_stem(name, ratio);
            let bench = bench_text(name, ratio);
            let width = bench.lines().filter(|l| l.starts_with("INPUT(")).count();
            let stream = format!("{}/{stem}", w.name);
            Inputs {
                patterns: patterns_text(width, w.patterns, seed, &stream),
                empty: patterns_text(width, 0, seed, &stream),
                bench,
                stem,
            }
        })
        .collect()
}

/// Writes every input a workload needs under `dir` and returns its jobs.
pub fn prepare(w: &Workload, seed: u64, dir: &Path) -> io::Result<Vec<Job>> {
    let circuits = dir.join("circuits");
    let run = dir.join(format!("{}-seed{seed}", w.name));
    fs::create_dir_all(&circuits)?;
    fs::create_dir_all(&run)?;
    let mut jobs = Vec::new();
    for input in inputs(w, seed) {
        let stem = input.stem;
        let bench = circuits.join(format!("{stem}.bench"));
        write_if_changed(&bench, &input.bench)?;
        let patterns = run.join(format!("{stem}.pat"));
        fs::write(&patterns, input.patterns)?;
        let empty = run.join(format!("{stem}.empty.pat"));
        fs::write(&empty, input.empty)?;
        jobs.push(Job {
            bench,
            patterns,
            empty,
            detections: run.join(format!("{stem}.det")),
            reference: run.join(format!("{stem}.ref.det")),
            stem,
        });
    }
    Ok(jobs)
}

/// Leaves an identical file alone so its page-cache state and mtime do not
/// change between runs.
fn write_if_changed(path: &Path, text: &str) -> io::Result<()> {
    if fs::read(path).is_ok_and(|old| old == text.as_bytes()) {
        return Ok(());
    }
    fs::write(path, text)
}

/// The workload's own `fsim` arguments for one job.
pub fn fsim_args(w: &Workload, job: &Job, patterns: &Path, detections: &Path) -> Vec<String> {
    let mut args = base_args(w, job, patterns, detections);
    if w.learn {
        args.extend(["--prune", "--learn"].map(String::from));
    }
    if w.threads > 1 {
        args.extend([
            "--threads".to_owned(),
            w.threads.to_string(),
            "--batch-windows".to_owned(),
            BATCH_WINDOW.to_string(),
            "--steal".to_owned(),
        ]);
    }
    args
}

/// The independent path's `fsim` arguments for one job.
pub fn cross_check_args(w: &Workload, job: &Job) -> Vec<String> {
    let mut args = base_args(w, job, &job.patterns, &job.reference);
    match w.cross_check {
        CrossCheck::Proofs => args.extend(["--simulator", "proofs"].map(String::from)),
        CrossCheck::PruneOnly => args.push("--prune".to_owned()),
        CrossCheck::Serial => {}
    }
    args
}

fn base_args(w: &Workload, job: &Job, patterns: &Path, detections: &Path) -> Vec<String> {
    let command = match w.model {
        Model::Stuck => "sim",
        Model::Transition => "transition",
    };
    vec![
        command.to_owned(),
        job.bench.display().to_string(),
        "--patterns".to_owned(),
        patterns.display().to_string(),
        "--detections".to_owned(),
        detections.display().to_string(),
    ]
}

/// Detected count and FNV-1a of a workload's detection files, folded in
/// job order.
pub fn detections_digest<'a>(
    files: impl IntoIterator<Item = &'a Path>,
) -> io::Result<(usize, u64)> {
    let mut hash = Fnv1a::default();
    let mut count = 0;
    for path in files {
        let bytes = fs::read(path)?;
        count += bytes.iter().filter(|&&b| b == b'\n').count();
        hash.update(&bytes);
    }
    Ok((count, hash.finish()))
}

/// Checks one job's detections against its independent path's. Returns
/// how many differences fell under the known PROOFS deviation (see
/// [`compare_detections`]).
pub fn agree(w: &Workload, job: &Job) -> Result<usize, String> {
    let read =
        |p: &Path| fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()));
    let (ours, theirs) = (read(&job.detections)?, read(&job.reference)?);
    if ours == theirs {
        return Ok(0);
    }
    let on_flip_flop = if w.cross_check == CrossCheck::Proofs {
        let c =
            parse_bench(&job.stem, &read(&job.bench)?).map_err(|e| format!("{}: {e}", job.stem))?;
        collapse_stuck_at(&c)
            .representatives
            .iter()
            .map(|f| matches!(f.site, FaultSite::Output { gate } if c.gate(gate).kind() == GateKind::Dff))
            .collect()
    } else {
        Vec::new()
    };
    compare_detections(&ours, &theirs, &on_flip_flop).map_err(|e| format!("{}: {e}", job.stem))
}

/// Compares two `pattern fault` detection lists. They must match exactly,
/// with one tolerated deviation: a flip-flop-output fault
/// (`on_flip_flop[fault]`) that the independent path detects strictly
/// earlier. The concurrent engine, unlike PROOFS and the serial and
/// deductive baselines, misses some of these while the good machine's
/// state is still unknown (e.g. `fsim sim @s298g --random 384 --seed 16`).
/// Returns the number of tolerated differences.
pub fn compare_detections(
    ours: &str,
    theirs: &str,
    on_flip_flop: &[bool],
) -> Result<usize, String> {
    let (ours, theirs) = (parse_detections(ours)?, parse_detections(theirs)?);
    let mut tolerated = 0;
    for fault in ours
        .keys()
        .chain(theirs.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let (a, b) = (ours.get(fault), theirs.get(fault));
        if a == b {
            continue;
        }
        let earlier =
            matches!((a, b), (None, Some(_))) || matches!((a, b), (Some(x), Some(y)) if y < x);
        if earlier && on_flip_flop.get(*fault as usize).copied().unwrap_or(false) {
            tolerated += 1;
        } else {
            return Err(format!(
                "fault {fault} detected at pattern {a:?} here but {b:?} by the independent path"
            ));
        }
    }
    Ok(tolerated)
}

fn parse_detections(text: &str) -> Result<BTreeMap<u32, u32>, String> {
    text.lines()
        .map(|line| {
            let mut it = line.split(' ').map(str::parse::<u32>);
            match (it.next(), it.next(), it.next()) {
                (Some(Ok(pattern)), Some(Ok(fault)), None) => Ok((fault, pattern)),
                _ => Err(format!("bad detection line {line:?}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_files() {
        for w in WORKLOADS {
            assert_eq!(inputs(w, 7), inputs(w, 7), "{}", w.name);
        }
    }

    #[test]
    fn seed_changes_patterns_but_not_circuits() {
        let w = find("small-sweep").expect("workload exists");
        let (a, b) = (inputs(w, 1), inputs(w, 2));
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bench, y.bench);
            assert_ne!(x.patterns, y.patterns);
            assert_eq!(x.patterns.lines().count(), 1 + w.patterns);
        }
    }

    #[test]
    fn only_earlier_flip_flop_detections_are_tolerated() {
        let ours = "0 1\n5 2\n9 3\n";
        assert_eq!(compare_detections(ours, ours, &[]), Ok(0));
        // Fault 2 sits on a flip-flop output and PROOFS sees it earlier.
        let ff = [false, false, true, false, true];
        assert_eq!(compare_detections(ours, "0 1\n2 2\n9 3\n", &ff), Ok(1));
        // Also when this side never detects it.
        assert_eq!(compare_detections(ours, "0 1\n5 2\n9 3\n3 4\n", &ff), Ok(1));
        // Later, or on a gate fault, or extra detections here: all errors.
        assert!(compare_detections(ours, "0 1\n7 2\n9 3\n", &ff).is_err());
        assert!(compare_detections(ours, "0 1\n5 2\n4 3\n", &ff).is_err());
        assert!(compare_detections(ours, "0 1\n5 2\n", &ff).is_err());
        assert!(compare_detections("x\n", ours, &ff).is_err());
    }

    #[test]
    fn pattern_files_have_the_circuit_width() {
        let text = patterns_text(70, 5, 3, "t");
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 5);
        assert!(rows
            .iter()
            .all(|r| r.len() == 70 && r.bytes().all(|b| b == b'0' || b == b'1')));
        assert_eq!(
            patterns_text(70, 0, 3, "t").lines().count(),
            1,
            "header only"
        );
        assert_ne!(patterns_text(8, 4, 3, "a"), patterns_text(8, 4, 3, "b"));
    }

    #[test]
    fn command_lines_follow_the_workload() {
        let job = Job {
            stem: "c".into(),
            bench: "c.bench".into(),
            patterns: "c.pat".into(),
            empty: "c.empty.pat".into(),
            detections: "c.det".into(),
            reference: "c.ref.det".into(),
        };
        let sharded = find("transition-sharded").unwrap();
        let args = fsim_args(sharded, &job, &job.patterns, &job.detections);
        assert_eq!(args[0], "transition");
        assert!(args.windows(2).any(|p| p == ["--threads", "2"]));
        assert!(args.contains(&"--steal".to_owned()));
        let serial = cross_check_args(sharded, &job);
        assert!(!serial.contains(&"--threads".to_owned()));
        let learned = find("stuck-learned").unwrap();
        assert!(fsim_args(learned, &job, &job.patterns, &job.detections)
            .contains(&"--learn".to_owned()));
        let check = cross_check_args(learned, &job);
        assert!(check.contains(&"--prune".to_owned()) && !check.contains(&"--learn".to_owned()));
        let proofs = cross_check_args(find("stuck-large").unwrap(), &job);
        assert!(proofs.windows(2).any(|p| p == ["--simulator", "proofs"]));
    }
}
