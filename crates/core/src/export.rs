//! CSV exporters for reconstructed traces.
//!
//! The paper's artifacts are tables and figures; downstream users of a
//! failure-analysis library usually want the underlying *traces* —
//! per-failure records, per-link summaries, and CDF series — in a shape
//! that R/pandas/gnuplot ingest directly. Everything here writes plain
//! RFC-4180-ish CSV (comma-separated, `"`-quoted where needed, one header
//! row) to any `io::Write`.

use crate::linktable::LinkTable;
use crate::observe::PipelineReport;
use crate::reconstruct::Failure;
use crate::stats::Ecdf;
use std::collections::HashMap;
use std::io::{self, Write};

/// Quote a CSV field if needed.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Write one failure per row: canonical link name, class, start/end
/// (milliseconds since the scenario epoch), and duration in seconds.
pub fn failures_csv<W: Write>(mut w: W, failures: &[Failure], table: &LinkTable) -> io::Result<()> {
    writeln!(w, "link,class,start_ms,end_ms,duration_s")?;
    for f in failures {
        writeln!(
            w,
            "{},{},{},{},{:.3}",
            csv_field(&table.name(f.link).to_string()),
            table.class(f.link),
            f.start.as_millis(),
            f.end.as_millis(),
            f.duration().as_secs_f64(),
        )?;
    }
    Ok(())
}

/// Write one link per row: failure count, annualized failure rate,
/// total and annualized downtime.
pub fn per_link_csv<W: Write>(mut w: W, failures: &[Failure], table: &LinkTable) -> io::Result<()> {
    let mut count: HashMap<_, u64> = HashMap::new();
    let mut downtime_ms: HashMap<_, u64> = HashMap::new();
    for f in failures {
        *count.entry(f.link).or_default() += 1;
        *downtime_ms.entry(f.link).or_default() += f.duration().as_millis();
    }
    writeln!(
        w,
        "link,class,active_years,failures,failures_per_year,downtime_h,downtime_h_per_year"
    )?;
    for ix in table.iter() {
        let years = table.years(ix).max(1e-9);
        let n = count.get(&ix).copied().unwrap_or(0);
        let dt_h = downtime_ms.get(&ix).copied().unwrap_or(0) as f64 / 3_600_000.0;
        writeln!(
            w,
            "{},{},{:.4},{},{:.2},{:.3},{:.3}",
            csv_field(&table.name(ix).to_string()),
            table.class(ix),
            years,
            n,
            n as f64 / years,
            dt_h,
            dt_h / years,
        )?;
    }
    Ok(())
}

/// Write a pair of ECDFs evaluated at the union of their sample points —
/// the exact staircase, not a resampling. Columns: `x`, then one
/// cumulative-probability column per named series.
pub fn ecdf_csv<W: Write>(mut w: W, series: &[(&str, &Ecdf)]) -> io::Result<()> {
    write!(w, "x")?;
    for (name, _) in series {
        write!(w, ",{}", csv_field(name))?;
    }
    writeln!(w)?;
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|(_, e)| e.values.iter().copied())
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    for x in xs {
        write!(w, "{x}")?;
        for (_, e) in series {
            write!(w, ",{:.6}", e.at(x))?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Write a [`PipelineReport`] as pretty-printed JSON — the shape the
/// `BENCH_*.json` datapoints use.
pub fn pipeline_report_json<W: Write>(w: W, report: &PipelineReport) -> io::Result<()> {
    serde_json::to_writer_pretty(w, report).map_err(io::Error::other)
}

/// Write a [`PipelineReport`]'s stages as CSV, one stage per row.
pub fn pipeline_report_csv<W: Write>(mut w: W, report: &PipelineReport) -> io::Result<()> {
    writeln!(w, "stage,items_in,items_out,wall_micros")?;
    for s in &report.stages {
        writeln!(
            w,
            "{},{},{},{}",
            csv_field(&s.stage),
            s.items_in,
            s.items_out,
            s.wall_micros
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linktable::LinkIx;
    use faultline_topology::generator::CenicParams;
    use faultline_topology::osi::SystemId;
    use faultline_topology::time::Timestamp;

    fn table() -> LinkTable {
        let topo = CenicParams::tiny(2).generate();
        let inventory = faultline_topology::config::mine_topology(&topo);
        let hostnames: HashMap<SystemId, String> = topo
            .routers()
            .iter()
            .map(|r| (r.system_id, r.hostname.clone()))
            .collect();
        LinkTable::new(&inventory, &hostnames, |_| {
            (Timestamp::EPOCH, Timestamp::from_secs(365 * 86_400))
        })
    }

    fn fail(link: u32, start: u64, end: u64) -> Failure {
        Failure {
            link: LinkIx(link),
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
        }
    }

    #[test]
    fn failures_csv_shape() {
        let t = table();
        let mut buf = Vec::new();
        failures_csv(&mut buf, &[fail(0, 10, 70), fail(1, 5, 6)], &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "link,class,start_ms,end_ms,duration_s");
        assert!(lines[1].contains(",10000,70000,60.000"));
        // Link names contain commas → must be quoted.
        assert!(lines[1].starts_with('"'));
    }

    #[test]
    fn per_link_csv_includes_zero_failure_links() {
        let t = table();
        let mut buf = Vec::new();
        per_link_csv(&mut buf, &[fail(0, 0, 3_600)], &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), t.len() + 1);
        // The failed link shows one failure of one hour.
        let row = text.lines().nth(1).unwrap();
        assert!(row.contains(",1,"), "row: {row}");
        // Zero rows exist too.
        assert!(text.lines().any(|l| l.contains(",0,0.00,")));
    }

    #[test]
    fn ecdf_csv_staircase() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let b = Ecdf::new(vec![2.0, 3.0]);
        let mut buf = Vec::new();
        ecdf_csv(&mut buf, &[("syslog", &a), ("isis", &b)]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "x,syslog,isis");
        assert_eq!(lines.len(), 4); // header + {1, 2, 3}
        assert_eq!(lines[1], "1,0.500000,0.000000");
        assert_eq!(lines[2], "2,1.000000,0.500000");
        assert_eq!(lines[3], "3,1.000000,1.000000");
    }

    #[test]
    fn pipeline_report_writers() {
        let mut report = PipelineReport::default();
        report.record_stage(
            "resolve_syslog",
            100,
            90,
            std::time::Duration::from_micros(1234),
        );
        report.total_micros = 1234;

        let mut csv = Vec::new();
        pipeline_report_csv(&mut csv, &report).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            "stage,items_in,items_out,wall_micros"
        );
        assert!(text.lines().any(|l| l == "resolve_syslog,100,90,1234"));

        let mut json = Vec::new();
        pipeline_report_json(&mut json, &report).unwrap();
        let text = String::from_utf8(json).unwrap();
        let back: PipelineReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.stages.len(), 1);
        assert_eq!(back.stages[0].wall_micros, 1234);
        assert_eq!(back.total_micros, 1234);
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
