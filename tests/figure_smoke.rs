//! Smoke tests: every figure module runs end to end at micro scale,
//! producing its tables and data files.

use std::path::PathBuf;

use ta::experiments::cli::FigureOpts;
use ta::experiments::figures;

fn micro_opts(tag: &str) -> (FigureOpts, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ta-figure-smoke-{}-{tag}", std::process::id()));
    let opts = FigureOpts {
        n: Some(60),
        runs: Some(1),
        rounds: Some(30),
        seed: 1,
        out_dir: dir.clone(),
        full: false,
    };
    (opts, dir)
}

#[test]
fn fig1_smoke() {
    let (opts, dir) = micro_opts("fig1");
    let report = figures::fig1::run(&opts).unwrap();
    assert!(!report.tables.is_empty());
    for f in &report.files {
        assert!(f.exists(), "{} missing", f.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig2_smoke() {
    let (opts, dir) = micro_opts("fig2");
    let report = figures::fig2::run(&opts).unwrap();
    // 3 apps × 3 families.
    assert_eq!(report.tables.len(), 9);
    assert_eq!(report.files.len(), 9);
    for f in &report.files {
        assert!(f.exists());
        let content = std::fs::read_to_string(f).unwrap();
        assert!(content.lines().count() > 10, "{} too short", f.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig3_smoke() {
    let (opts, dir) = micro_opts("fig3");
    let report = figures::fig3::run(&opts).unwrap();
    // 2 apps × 3 families (chaotic excluded under churn, as in the paper).
    assert_eq!(report.tables.len(), 6);
    assert_eq!(report.files.len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig4_smoke() {
    let (opts, dir) = micro_opts("fig4");
    let report = figures::fig4::run(&opts).unwrap();
    // 2 apps × 2 families.
    assert_eq!(report.tables.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig5_smoke() {
    let (opts, dir) = micro_opts("fig5");
    let report = figures::fig5::run(&opts).unwrap();
    assert_eq!(report.tables.len(), 1);
    assert_eq!(report.files.len(), 2);
    let rendered = report.render();
    assert!(rendered.contains("closed form"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faults_smoke() {
    let (opts, dir) = micro_opts("faults");
    let report = figures::faults::run(&opts).unwrap();
    assert_eq!(report.tables.len(), 1);
    // 5 strategies × 3 drop rates.
    assert_eq!(report.tables[0].1.len(), 15);
    std::fs::remove_dir_all(&dir).ok();
}
