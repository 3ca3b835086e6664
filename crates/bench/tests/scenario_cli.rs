//! The `scenario` binary's `--campaign` mode end to end: `--codec`
//! reaches the wire, and every flag the mode does not read exits 1
//! with a message naming it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scenario(args: &[&str], out_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .env("OASIS_OUT_DIR", out_dir)
        .env_remove("OASIS_TRACE")
        .output()
        .expect("scenario binary runs")
}

/// A fresh, empty output directory for one run.
fn out_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("oasis_scenario_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir
}

/// Upload bytes of every round in a campaign trajectory JSONL.
fn bytes_up(trajectory: &Path) -> Vec<u64> {
    std::fs::read_to_string(trajectory)
        .expect("trajectory written")
        .lines()
        .filter_map(|line| {
            let v: serde_json::Value = serde_json::from_str(line).expect("JSONL line");
            v.get("bytes_up").and_then(serde_json::Value::as_u64)
        })
        .collect()
}

#[test]
fn campaign_uploads_through_the_requested_codec() {
    let run = |codec: &str| {
        let dir = out_dir(codec);
        let out = scenario(
            &["--campaign", "campaign:2", "--codec", codec, "--quick"],
            &dir,
        );
        assert!(out.status.success(), "{codec}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("over {codec}")), "{stdout}");
        let bytes = bytes_up(&dir.join("trajectory_none.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let (raw, q8) = (run("raw"), run("q8"));
    assert_eq!(raw.len(), 2);
    assert_eq!(q8.len(), 2);
    for (r, q) in raw.iter().zip(&q8) {
        // One byte per weight plus a small header, against four.
        assert!(q * 3 < *r, "q8 {q} bytes vs raw {r}");
    }
}

#[test]
fn campaign_rejects_each_flag_it_does_not_read() {
    let dir = out_dir("rejects");
    for (flag, value) in [
        ("--attack", "rtf:8"),
        ("--net", "ideal"),
        ("--batch", "4"),
        ("--sample", "8"),
        ("--workload", "imagenette,cifar100"),
        ("--codec", "raw,q8"),
    ] {
        let out = scenario(&["--campaign", "campaign:2", flag, value, "--quick"], &dir);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
