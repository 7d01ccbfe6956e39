//! Report types shared by the auditors.


/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a cost, not a correctness problem.
    Info,
    /// Will misbehave under specific conditions.
    Warning,
    /// Will deadlock, corrupt output, or leak privilege.
    Critical,
}

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity classification.
    pub severity: Severity,
    /// Short machine-readable code (e.g. `ORPHANED_LOCK`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    pub(crate) fn new(severity: Severity, code: &'static str, message: impl Into<String>) -> Finding {
        Finding {
            severity,
            code,
            message: message.into(),
        }
    }
}

/// A bundle of findings with summary accessors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Creates an empty report.
    pub(crate) fn new() -> Report {
        Report::default()
    }

    /// Adds a finding, keeping the list sorted most-severe-first.
    pub(crate) fn push(&mut self, f: Finding) {
        self.findings.push(f);
        self.findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    }

    /// Highest severity present, if any.
    pub(crate) fn max_severity(&self) -> Option<Severity> {
        self.findings.first().map(|f| f.severity)
    }

    /// True if nothing critical was found.
    pub fn is_safe(&self) -> bool {
        self.max_severity() != Some(Severity::Critical)
    }

    /// Renders the report as text lines.
    pub fn render(&self) -> String {
        if self.findings.is_empty() {
            return "no findings\n".to_string();
        }
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Critical => "CRIT",
                Severity::Warning => "WARN",
                Severity::Info => "INFO",
            };
            out.push_str(&format!("[{tag}] {}: {}\n", f.code, f.message));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_most_severe_first() {
        let mut r = Report::new();
        r.push(Finding::new(Severity::Info, "A", "a"));
        r.push(Finding::new(Severity::Critical, "B", "b"));
        r.push(Finding::new(Severity::Warning, "C", "c"));
        assert_eq!(r.findings[0].code, "B");
        assert_eq!(r.max_severity(), Some(Severity::Critical));
        assert!(!r.is_safe());
        assert_eq!(r.findings[1].code, "C", "then the warning");
    }

    #[test]
    fn empty_report_is_safe() {
        let r = Report::new();
        assert!(r.is_safe());
        assert_eq!(r.max_severity(), None);
        assert_eq!(r.render(), "no findings\n");
    }

    #[test]
    fn render_contains_codes() {
        let mut r = Report::new();
        r.push(Finding::new(
            Severity::Critical,
            "ORPHANED_LOCK",
            "lock 3 stuck",
        ));
        let s = r.render();
        assert!(s.contains("[CRIT] ORPHANED_LOCK"));
        assert!(s.contains("lock 3 stuck"));
    }
}
