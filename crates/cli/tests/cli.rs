//! End-to-end tests driving the compiled `cdp` binary: the full
//! generate → protect → evaluate → analyze → optimize workflow an agency
//! analyst would run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cdp"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cdp_cli_e2e").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[&str]) -> Output {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "cdp {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_lists_commands() {
    let out = run_ok(&["help"]);
    let text = stdout_of(&out);
    for cmd in ["generate", "protect", "evaluate", "analyze", "optimize"] {
        assert!(text.contains(cmd), "help mentions {cmd}");
    }
    let out = run_ok(&["help", "protect"]);
    assert!(stdout_of(&out).contains("pram:<theta>"));
}

#[test]
fn no_command_prints_usage_and_fails() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_command_is_usage_error() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_workflow_generate_protect_evaluate_analyze() {
    let dir = workdir("workflow");
    let original = dir.join("original.csv");
    let masked = dir.join("masked.csv");

    run_ok(&[
        "generate",
        "--dataset",
        "german",
        "--seed",
        "11",
        "--records",
        "80",
        "--out",
        original.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&original).unwrap().lines().count(),
        81
    );

    let protect_out = run_ok(&[
        "protect",
        "--input",
        original.to_str().unwrap(),
        "--method",
        "pram:0.6",
        "--seed",
        "11",
        "--out",
        masked.to_str().unwrap(),
    ]);
    assert!(stdout_of(&protect_out).contains("cells changed"));

    let eval_out = run_ok(&[
        "evaluate",
        "--original",
        original.to_str().unwrap(),
        "--masked",
        masked.to_str().unwrap(),
    ]);
    let eval_text = stdout_of(&eval_out);
    for token in [
        "CTBIL", "DBIL", "EBIL", "ID", "DBRL", "PRL", "RSRL", "Eq.1", "Eq.2",
    ] {
        assert!(eval_text.contains(token), "evaluate prints {token}");
    }

    let analyze_out = run_ok(&[
        "analyze",
        "--masked",
        masked.to_str().unwrap(),
        "--original",
        original.to_str().unwrap(),
        "--suggest-k",
        "2",
    ]);
    let analyze_text = stdout_of(&analyze_out);
    assert!(analyze_text.contains("k-anonymity"));
    assert!(analyze_text.contains("prosecutor risk"));
    assert!(analyze_text.contains("journalist risk"));
    assert!(analyze_text.contains("suggestion:"));
}

#[test]
fn evaluate_identity_reports_zero_il() {
    let dir = workdir("identity");
    let original = dir.join("original.csv");
    run_ok(&[
        "generate",
        "--dataset",
        "flare",
        "--records",
        "60",
        "--out",
        original.to_str().unwrap(),
    ]);
    let out = run_ok(&[
        "evaluate",
        "--original",
        original.to_str().unwrap(),
        "--masked",
        original.to_str().unwrap(),
    ]);
    let text = stdout_of(&out);
    let il_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("IL"))
        .expect("IL line present");
    assert!(
        il_line.contains("0.00"),
        "identity masking must have zero IL: {il_line}"
    );
}

#[test]
fn optimize_scalar_produces_runnable_artifacts() {
    let dir = workdir("optimize");
    run_ok(&[
        "optimize",
        "--dataset",
        "adult",
        "--records",
        "60",
        "--iters",
        "15",
        "--seed",
        "5",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let evolution = std::fs::read_to_string(dir.join("evolution.csv")).unwrap();
    assert!(evolution.starts_with("iteration,min,mean,max"));
    // min score series never increases (elitism)
    let mins: Vec<f64> = evolution
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
        .collect();
    assert!(mins.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    // best.csv parses back as CSV with the original header
    let best = std::fs::read_to_string(dir.join("best.csv")).unwrap();
    assert_eq!(best.lines().count(), 61);
}

#[test]
fn optimize_user_csv_nsga_mode() {
    let dir = workdir("nsga");
    let input = dir.join("input.csv");
    let mut csv = String::from("REGION,JOB,AGE\n");
    for i in 0..80 {
        csv.push_str(
            [
                "north,clerk,30\n",
                "south,nurse,40\n",
                "east,clerk,30\n",
                "west,teacher,50\n",
            ][i % 4],
        );
    }
    std::fs::write(&input, csv).unwrap();
    run_ok(&[
        "optimize",
        "--input",
        input.to_str().unwrap(),
        "--attrs",
        "REGION,JOB",
        "--methods",
        "pram:0.7,randomswap:0.4",
        "--copies",
        "4",
        "--mode",
        "nsga",
        "--iters",
        "6",
        "--seed",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let front = std::fs::read_to_string(dir.join("front.csv")).unwrap();
    assert!(front.contains("archive,"));
    let hv = std::fs::read_to_string(dir.join("hypervolume.csv")).unwrap();
    let values: Vec<f64> = hv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(values.len(), 7);
    assert!(values.iter().all(|v| *v >= 0.0));
}

#[test]
fn hierarchy_export_edit_protect_workflow() {
    let dir = workdir("hierarchy");
    let input = dir.join("data.csv");
    let mut csv = String::from("CITY,JOB\n");
    for i in 0..40 {
        csv.push_str(["a,x\n", "b,y\n", "c,x\n", "d,z\n"][i % 4]);
    }
    std::fs::write(&input, csv).unwrap();

    // 1. export auto hierarchies
    let hier_dir = dir.join("vgh");
    run_ok(&[
        "hierarchy",
        "--input",
        input.to_str().unwrap(),
        "--out",
        hier_dir.to_str().unwrap(),
    ]);
    assert!(hier_dir.join("CITY.csv").exists());
    assert!(hier_dir.join("JOB.csv").exists());

    // 2. hand-curate CITY: {a,b} and {c,d} at level 1
    std::fs::write(hier_dir.join("CITY.csv"), "a,a\nb,a\nc,c\nd,c\n").unwrap();

    // 3. recode through the curated hierarchy
    let masked = dir.join("masked.csv");
    run_ok(&[
        "protect",
        "--input",
        input.to_str().unwrap(),
        "--method",
        "recode:1",
        "--hierarchy-dir",
        hier_dir.to_str().unwrap(),
        "--attrs",
        "CITY",
        "--out",
        masked.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&masked).unwrap();
    for line in text.lines().skip(1) {
        let city = line.split(',').next().unwrap();
        assert!(
            ["a", "c"].contains(&city),
            "curated level 1 keeps only group representatives: got {city}"
        );
    }

    // 4. the audit should now see bigger classes on CITY
    let analyze_out = run_ok(&[
        "analyze",
        "--masked",
        masked.to_str().unwrap(),
        "--attrs",
        "CITY",
    ]);
    assert!(stdout_of(&analyze_out).contains("k-anonymity"));
}

#[test]
fn protect_bad_method_fails_with_grammar() {
    let dir = workdir("badmethod");
    let input = dir.join("in.csv");
    std::fs::write(&input, "A\nx\ny\n").unwrap();
    let out = bin()
        .args([
            "protect",
            "--input",
            input.to_str().unwrap(),
            "--method",
            "quantum:9",
            "--out",
            dir.join("out.csv").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("accepted methods"));
}

#[test]
fn evaluate_misaligned_files_fails_cleanly() {
    let dir = workdir("misaligned");
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    std::fs::write(&a, "X\np\nq\n").unwrap();
    std::fs::write(&b, "X\np\n").unwrap();
    let out = bin()
        .args([
            "evaluate",
            "--original",
            a.to_str().unwrap(),
            "--masked",
            b.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("aligned"));
}

#[test]
fn more_than_twenty_attributes_fails_with_a_typed_error() {
    // 40 rows × 21 two-category columns: one attribute past the PRL
    // census's 2^a limit
    let dir = workdir("wide21");
    let csv = dir.join("wide21.csv");
    let header: Vec<String> = (0..21).map(|k| format!("c{k}")).collect();
    let mut text = header.join(",") + "\n";
    for r in 0..40 {
        let row: Vec<&str> = (0..21)
            .map(|k| if (r + k) % 3 == 0 { "a" } else { "b" })
            .collect();
        text += &(row.join(",") + "\n");
    }
    std::fs::write(&csv, text).unwrap();
    let path = csv.to_str().unwrap();
    let out_dir = dir.join("opt");
    for args in [
        vec!["evaluate", "--original", path, "--masked", path],
        vec![
            "optimize",
            "--input",
            path,
            "--iters",
            "2",
            "--out",
            out_dir.to_str().unwrap(),
        ],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "cdp {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("21 protected attributes; at most 20 are supported"),
            "cdp {args:?}: {stderr}"
        );
    }
}
