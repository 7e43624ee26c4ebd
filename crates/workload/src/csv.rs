//! CSV import/export for job traces.
//!
//! The paper replays production logs; users with their own cluster logs
//! can bring them as CSV with the header
//! `id,model,gpus,iterations,arrival_s,value` and replay them against any
//! placer. Export is the exact inverse, so round-tripping is lossless up
//! to float formatting.

use crate::{Job, ModelKind, Trace};
use netpack_topology::JobId;
use std::error::Error;
use std::fmt;

/// The column header written and expected by the CSV codec.
pub const TRACE_CSV_HEADER: &str = "id,model,gpus,iterations,arrival_s,value";

/// Errors raised when parsing a trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseTraceError {
    /// The first line did not match [`TRACE_CSV_HEADER`].
    BadHeader(String),
    /// A data row had the wrong number of columns.
    BadColumnCount {
        /// 1-based line number.
        line: usize,
        /// Columns found.
        found: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
        /// Offending text.
        value: String,
    },
    /// Two rows share a job id.
    DuplicateId(u64),
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadHeader(h) => {
                write!(f, "expected header '{TRACE_CSV_HEADER}', got '{h}'")
            }
            ParseTraceError::BadColumnCount { line, found } => {
                write!(f, "line {line}: expected 6 columns, found {found}")
            }
            ParseTraceError::BadField {
                line,
                column,
                value,
            } => write!(f, "line {line}: cannot parse {column} from '{value}'"),
            ParseTraceError::DuplicateId(id) => write!(f, "duplicate job id {id}"),
        }
    }
}

impl Error for ParseTraceError {}

impl Trace {
    /// Render this trace as CSV (header + one row per job).
    ///
    /// # Example
    ///
    /// ```
    /// use netpack_workload::{TraceKind, TraceSpec, Trace};
    /// let trace = TraceSpec::new(TraceKind::Real, 5).seed(3).generate();
    /// let csv = trace.to_csv_string();
    /// let back = Trace::from_csv_str(&csv)?;
    /// assert_eq!(trace, back);
    /// # Ok::<(), netpack_workload::ParseTraceError>(())
    /// ```
    pub fn to_csv_string(&self) -> String {
        let mut out = String::from(TRACE_CSV_HEADER);
        out.push('\n');
        for j in self.jobs() {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                j.id.0, j.model, j.gpus, j.iterations, j.arrival_s, j.value
            ));
        }
        out
    }

    /// Parse a trace from CSV text (jobs are re-sorted by arrival time).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on a malformed header, row, or field,
    /// or on duplicate job ids. Model names are matched case-insensitively
    /// against the six-model pool.
    pub fn from_csv_str(text: &str) -> Result<Trace, ParseTraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| ParseTraceError::BadHeader(String::new()))?;
        if header.trim() != TRACE_CSV_HEADER {
            return Err(ParseTraceError::BadHeader(header.trim().to_string()));
        }
        let mut jobs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let lineno = i + 1;
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() != 6 {
                return Err(ParseTraceError::BadColumnCount {
                    line: lineno,
                    found: cols.len(),
                });
            }
            let field = |column: &'static str, value: &str| ParseTraceError::BadField {
                line: lineno,
                column,
                value: value.to_string(),
            };
            let id: u64 = cols[0].parse().map_err(|_| field("id", cols[0]))?;
            if !seen.insert(id) {
                return Err(ParseTraceError::DuplicateId(id));
            }
            let model = ModelKind::ALL
                .into_iter()
                .find(|m| m.name() == cols[1].to_ascii_lowercase())
                .ok_or_else(|| field("model", cols[1]))?;
            let gpus: usize = cols[2].parse().map_err(|_| field("gpus", cols[2]))?;
            let iterations: u64 = cols[3].parse().map_err(|_| field("iterations", cols[3]))?;
            let arrival_s: f64 = cols[4].parse().map_err(|_| field("arrival_s", cols[4]))?;
            let value: f64 = cols[5].parse().map_err(|_| field("value", cols[5]))?;
            if gpus == 0
                || iterations == 0
                || !arrival_s.is_finite()
                || arrival_s < 0.0
                || !value.is_finite()
                || value <= 0.0
            {
                return Err(field("row", line));
            }
            jobs.push(
                Job::builder(JobId(id), model, gpus)
                    .iterations(iterations)
                    .arrival_s(arrival_s)
                    .value(value)
                    .build(),
            );
        }
        Ok(Trace::from_jobs(jobs))
    }

    /// Write the CSV rendering to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv_string())
    }

    /// Read a trace from a CSV file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error or the parse error, boxed.
    pub fn read_csv(path: impl AsRef<std::path::Path>) -> Result<Trace, Box<dyn Error>> {
        let text = std::fs::read_to_string(path)?;
        Ok(Trace::from_csv_str(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceKind, TraceSpec};

    #[test]
    fn round_trip_preserves_every_job() {
        let trace = TraceSpec::new(TraceKind::Poisson, 40).seed(9).generate();
        let back = Trace::from_csv_str(&trace.to_csv_string()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("netpack-trace-csv");
        let path = dir.join("t.csv");
        let trace = TraceSpec::new(TraceKind::Real, 10).seed(2).generate();
        trace.write_csv(&path).unwrap();
        let back = Trace::read_csv(&path).unwrap();
        assert_eq!(trace, back);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn header_is_validated() {
        let err = Trace::from_csv_str("nope\n1,vgg16,2,10,0,1\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::BadHeader(_)));
        assert!(err.to_string().contains("expected header"));
    }

    #[test]
    fn column_count_is_validated() {
        let csv = format!("{TRACE_CSV_HEADER}\n1,vgg16,2\n");
        let err = Trace::from_csv_str(&csv).unwrap_err();
        assert_eq!(err, ParseTraceError::BadColumnCount { line: 2, found: 3 });
    }

    #[test]
    fn fields_are_validated() {
        for bad in [
            "x,vgg16,2,10,0,1",       // id
            "1,nosuchmodel,2,10,0,1", // model
            "1,vgg16,zero,10,0,1",    // gpus
            "1,vgg16,2,ten,0,1",      // iterations
            "1,vgg16,2,10,minus,1",   // arrival
            "1,vgg16,2,10,0,zero",    // value
            "1,vgg16,0,10,0,1",       // zero gpus
            "1,vgg16,2,10,-5,1",      // negative arrival
        ] {
            let csv = format!("{TRACE_CSV_HEADER}\n{bad}\n");
            assert!(
                Trace::from_csv_str(&csv).is_err(),
                "should reject row: {bad}"
            );
        }
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let csv = format!("{TRACE_CSV_HEADER}\n1,vgg16,2,10,0,1\n1,alexnet,1,5,2,1\n");
        assert_eq!(
            Trace::from_csv_str(&csv).unwrap_err(),
            ParseTraceError::DuplicateId(1)
        );
    }

    #[test]
    fn blank_lines_and_case_insensitive_models_are_accepted() {
        let csv = format!("{TRACE_CSV_HEADER}\n\n1,VGG16,2,10,0.5,1\n\n");
        let trace = Trace::from_csv_str(&csv).unwrap();
        assert_eq!(trace.jobs().len(), 1);
        assert_eq!(trace.jobs()[0].model, ModelKind::Vgg16);
    }

    #[test]
    fn rows_are_sorted_by_arrival_after_parse() {
        let csv = format!("{TRACE_CSV_HEADER}\n1,vgg16,2,10,9.0,1\n2,alexnet,1,5,1.0,1\n");
        let trace = Trace::from_csv_str(&csv).unwrap();
        assert_eq!(trace.jobs()[0].id, JobId(2));
    }
}
