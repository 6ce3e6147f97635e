//! Figure 1: the smartphone trace churn pattern.
//!
//! "Proportion of users online, and proportion of users that have been
//! online, as a function of time. The bars indicate the proportion of the
//! simulated users that log in and log out ... in the given period."
//!
//! Regenerated from the synthetic STUNner-calibrated model (see
//! `crates/churn/src/synthetic.rs` for the substitution). The quick default simulates 5,000 two-day segments;
//! `--full` uses the paper's 40,658.

use ta_churn::stats::figure1_series;
use ta_churn::synthetic::SmartphoneTraceModel;
use ta_metrics::{Table, TimeSeries};
use ta_sim::paper;
use ta_sim::time::SimDuration;

use crate::cli::FigureOpts;
use crate::figures::FigureError;
use crate::report::Report;

/// Runs the Figure 1 regeneration.
///
/// # Errors
///
/// Returns [`FigureError::Io`] if the data file cannot be written.
pub fn run(opts: &FigureOpts) -> Result<Report, FigureError> {
    let n = opts.effective_n(5_000, 40_658);
    let schedule = SmartphoneTraceModel::default().generate(n, paper::TWO_DAYS, opts.seed);
    let buckets = figure1_series(&schedule, paper::TWO_DAYS, SimDuration::from_hours(1));

    let mut report = Report::new(
        "fig1",
        format!("smartphone trace churn pattern over 48 h ({n} segments)"),
    );

    let mut table = Table::new(vec![
        "hour".into(),
        "online".into(),
        "has_been_online".into(),
        "logins/h".into(),
        "logouts/h".into(),
    ]);
    for b in buckets.iter().step_by(3) {
        table.row(vec![
            format!("{:.0}", b.hour),
            format!("{:.3}", b.online),
            format!("{:.3}", b.has_been_online),
            format!("{:.3}", b.logins),
            format!("{:.3}", b.logouts),
        ]);
    }
    report.table("churn pattern (every 3rd hour)", table);

    let mut shape = Table::new(vec!["property".into(), "value".into(), "paper".into()]);
    let online_mean = buckets.iter().map(|b| b.online).sum::<f64>() / buckets.len() as f64;
    let night = buckets
        .iter()
        .filter(|b| (b.hour % 24.0) < 6.0)
        .map(|b| b.online);
    let day = buckets
        .iter()
        .filter(|b| (12.0..18.0).contains(&(b.hour % 24.0)))
        .map(|b| b.online);
    let night_mean = night.clone().sum::<f64>() / night.count().max(1) as f64;
    let day_mean = day.clone().sum::<f64>() / day.count().max(1) as f64;
    shape.row_display([
        "never-online fraction".to_string(),
        format!("{:.3}", schedule.never_online_fraction()),
        "~0.30".to_string(),
    ]);
    shape.row_display([
        "mean online fraction".to_string(),
        format!("{online_mean:.3}"),
        "~0.3-0.45".to_string(),
    ]);
    shape.row_display([
        "night vs day availability".to_string(),
        format!("{night_mean:.3} vs {day_mean:.3}"),
        "night higher".to_string(),
    ]);
    report.table("shape checks vs. the paper", shape);

    // One .dat with the four series on the hourly grid.
    let times: Vec<f64> = buckets.iter().map(|b| b.hour * 3600.0).collect();
    let col = |f: fn(&ta_churn::ChurnBucket) -> f64| {
        TimeSeries::from_parts(times.clone(), buckets.iter().map(f).collect())
    };
    let series = [
        col(|b| b.online),
        col(|b| b.has_been_online),
        col(|b| b.logins),
        col(|b| b.logouts),
    ];
    let path = opts.out_dir.join("fig1_churn.dat");
    ta_metrics::output::write_dat(
        &path,
        "Figure 1: churn pattern of the synthetic smartphone trace",
        &["online", "has_been_online", "logins", "logouts"],
        &series,
    )?;
    report.file(path);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_tables_and_file() {
        let dir = std::env::temp_dir().join(format!("ta-fig1-{}", std::process::id()));
        let opts = FigureOpts {
            n: Some(300),
            out_dir: dir.clone(),
            ..FigureOpts::default()
        };
        let report = run(&opts).unwrap();
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.files.len(), 1);
        assert!(report.files[0].exists());
        let text = report.render();
        assert!(text.contains("never-online fraction"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
