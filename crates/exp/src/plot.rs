//! Gnuplot emitters: turn recorded figure series into ready-to-run plot
//! scripts, so `ckpt-exp <fig> --out results && gnuplot results/<fig>.gp`
//! reproduces the paper's figures visually, not just numerically.

use std::fmt::Write as _;

/// Policies plotted, in the paper's legend order.
const LEGEND_ORDER: &[&str] = &[
    "DalyHigh",
    "DalyLow",
    "Young",
    "LowerBound",
    "PeriodLB",
    "Liu",
    "Bouguerra",
    "OptExp",
    "DPMakespan",
    "DPNextFailure",
];

/// A gnuplot script for a degradation-vs-x figure (Figures 2–7 style).
///
/// `data_csv` must be in [`crate::output::csv_series`] format and is
/// referenced by file name, so write both files next to each other:
///
/// ```text
/// results/fig4.csv   # csv_series output
/// results/fig4.gp    # this script: `gnuplot fig4.gp` → fig4.png
/// ```
pub fn degradation_figure_script(
    title: &str,
    xlabel: &str,
    csv_name: &str,
    png_name: &str,
    log2_x: bool,
) -> String {
    let mut gp = String::new();
    let _ = writeln!(gp, "set terminal pngcairo size 960,640 enhanced");
    let _ = writeln!(gp, "set output '{png_name}'");
    let _ = writeln!(gp, "set title '{title}'");
    let _ = writeln!(gp, "set xlabel '{xlabel}'");
    let _ = writeln!(gp, "set ylabel 'average makespan degradation'");
    let _ = writeln!(gp, "set datafile separator ','");
    let _ = writeln!(gp, "set key outside right");
    let _ = writeln!(gp, "set grid");
    if log2_x {
        let _ = writeln!(gp, "set logscale x 2");
    }
    let _ = writeln!(gp);
    let mut plots = Vec::new();
    for name in LEGEND_ORDER {
        plots.push(format!(
            "'{csv_name}' using 1:(strcol(2) eq '{name}' ? $3 : 1/0) with linespoints title '{name}'"
        ));
    }
    let _ = writeln!(gp, "plot \\\n  {}", plots.join(", \\\n  "));
    gp
}

/// A gnuplot script for the Figure 1 MTBF comparison
/// (`p,mtbf_rejuvenate_all_s,mtbf_failed_only_s` CSV).
pub fn fig1_script(csv_name: &str, png_name: &str) -> String {
    format!(
        "set terminal pngcairo size 960,640 enhanced\n\
         set output '{png_name}'\n\
         set title 'Platform MTBF vs rejuvenation option (Weibull k = 0.7)'\n\
         set xlabel 'number of processors'\n\
         set ylabel 'platform MTBF (s)'\n\
         set datafile separator ','\n\
         set logscale x 2\n\
         set logscale y 2\n\
         set grid\n\
         plot '{csv_name}' using 1:2 with linespoints title 'rejuvenate all', \\\n  \
              '{csv_name}' using 1:3 with linespoints title 'failed only'\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_script_references_files_and_series() {
        let gp = degradation_figure_script("Figure 4", "p", "fig4.csv", "fig4.png", true);
        assert!(gp.contains("set output 'fig4.png'"));
        assert!(gp.contains("logscale x 2"));
        assert!(gp.contains("'fig4.csv'"));
        assert!(gp.contains("strcol(2)"));
        assert!(gp.contains("DPNextFailure"));
    }

    #[test]
    fn fig1_script_has_both_series() {
        let gp = fig1_script("fig1.csv", "fig1.png");
        assert!(gp.contains("rejuvenate all"));
        assert!(gp.contains("failed only"));
        assert!(gp.contains("logscale y 2"));
    }
}
