//! The append-only decision journal: crash-safe session persistence.
//!
//! Unlike [`crate::script::SessionScript`], which captures the *final*
//! state of a session, the journal records every keystroke-level
//! operation — including undos, revisions and reaffirmations — so that
//! [`Journal::replay`] reconstructs the exact focus, bindings **and
//! stale-flag set** of the original session. Records serialize one per
//! line (JSON lines), the natural shape for an append-only file: a crash
//! mid-write can only tear the final line, and [`Journal::from_jsonl`]
//! recovers tolerantly by dropping exactly that torn tail (reported as a
//! [`DiagCode::TornJournalTail`] diagnostic).
//!
//! One renderer writes every record line, whether it comes from a
//! [`JournalRecord`] or straight from a session's [`Decision`] log
//! entry: [`JournalAppender`] appends through it and
//! [`Journal::to_jsonl`] (and so [`JournalDir::compact`]) serializes
//! through it. [`Journal::checkpoint`] builds the minimal journal that
//! compaction writes over a long one.

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use foundation::json::Writer;

use crate::diag::{DiagCode, Diagnostic, Report, Span};
use crate::error::DseError;
use crate::hierarchy::{CdoId, DesignSpace};
use crate::property::PropertyKind;
use crate::session::{Decision, ExplorationSession};
use crate::value::Value;

/// One journaled session operation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalRecord {
    /// [`ExplorationSession::set_requirement`].
    SetRequirement {
        /// The requirement's name.
        name: String,
        /// The entered value.
        value: Value,
    },
    /// [`ExplorationSession::decide`].
    Decide {
        /// The decided issue.
        name: String,
        /// The chosen option.
        value: Value,
    },
    /// [`ExplorationSession::undo`].
    Undo,
    /// [`ExplorationSession::revise`].
    Revise {
        /// The revised property.
        name: String,
        /// The new value.
        value: Value,
    },
    /// [`ExplorationSession::reaffirm`].
    Reaffirm {
        /// The reaffirmed property.
        name: String,
    },
    /// [`ExplorationSession::annotate`].
    Annotate {
        /// The annotated property.
        name: String,
        /// The recorded rationale.
        note: String,
    },
}

foundation::impl_json_enum!(JournalRecord {
    SetRequirement { name, value },
    Decide { name, value },
    Undo,
    Revise { name, value },
    Reaffirm { name },
    Annotate { name, note },
});

/// A record borrowed for rendering: from a [`JournalRecord`], or
/// straight from a session's [`Decision`] log entry.
#[derive(Clone, Copy)]
enum Line<'a> {
    /// `SetRequirement`, `Decide` or `Revise`: the variant's name, then
    /// its `name` and `value` fields.
    Valued(&'static str, &'a str, &'a Value),
    Undo,
    Reaffirm(&'a str),
    Annotate(&'a str, &'a str),
}

impl<'a> From<&'a JournalRecord> for Line<'a> {
    fn from(record: &'a JournalRecord) -> Self {
        match record {
            JournalRecord::SetRequirement { name, value } => {
                Line::Valued("SetRequirement", name, value)
            }
            JournalRecord::Decide { name, value } => Line::Valued("Decide", name, value),
            JournalRecord::Undo => Line::Undo,
            JournalRecord::Revise { name, value } => Line::Valued("Revise", name, value),
            JournalRecord::Reaffirm { name } => Line::Reaffirm(name),
            JournalRecord::Annotate { name, note } => Line::Annotate(name, note),
        }
    }
}

impl<'a> From<&'a Decision> for Line<'a> {
    /// The record that re-makes a logged decision: a requirement is
    /// entered, everything else is decided.
    fn from(d: &'a Decision) -> Self {
        match d.kind {
            PropertyKind::Requirement => Line::Valued("SetRequirement", &d.property, &d.value),
            _ => Line::Valued("Decide", &d.property, &d.value),
        }
    }
}

/// Renders one record as its journal line onto `out`: the compact JSON
/// the record's codec encodes, then `\n`.
fn render_line(out: &mut Vec<u8>, line: Line<'_>) {
    let mut w = Writer::new(out);
    let (tag, name) = match line {
        Line::Undo => {
            w.str_value("Undo");
            return out.push(b'\n');
        }
        Line::Valued(tag, name, _) => (tag, name),
        Line::Reaffirm(name) => ("Reaffirm", name),
        Line::Annotate(name, _) => ("Annotate", name),
    };
    w.begin_object();
    w.key(tag);
    w.begin_object();
    w.key("name");
    w.str_value(name);
    match line {
        Line::Valued(_, _, value) => {
            w.key("value");
            write_value(&mut w, value);
        }
        Line::Annotate(_, note) => {
            w.key("note");
            w.str_value(note);
        }
        Line::Undo | Line::Reaffirm(_) => {}
    }
    w.end_object();
    w.end_object();
    out.push(b'\n');
}

/// A [`Value`] in its tagged codec form, e.g. `{"Int":[768]}`.
fn write_value(w: &mut Writer<'_>, value: &Value) {
    let tag = match value {
        Value::Int(_) => "Int",
        Value::Real(_) => "Real",
        Value::Text(_) => "Text",
        Value::Flag(_) => "Flag",
    };
    w.begin_object();
    w.key(tag);
    w.begin_array();
    match value {
        Value::Int(i) => w.int_value(*i),
        Value::Real(r) => w.float_value(*r),
        Value::Text(t) => w.str_value(t),
        Value::Flag(b) => w.bool_value(*b),
    }
    w.end_array();
    w.end_object();
}

/// Errors from journal recovery or replay.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RecoverError {
    /// A record *before* the final one failed to parse — the journal body
    /// is corrupt, not merely torn, and recovery refuses to guess.
    Corrupt {
        /// 1-based line number of the unparseable record.
        line: usize,
        /// The parser's explanation.
        detail: String,
    },
    /// A parsed record failed to re-apply against the space.
    Replay {
        /// 0-based index of the failing record.
        record: usize,
        /// The session error it produced.
        error: DseError,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Corrupt { line, detail } => {
                write!(f, "journal corrupt at line {line}: {detail}")
            }
            RecoverError::Replay { record, error } => {
                write!(f, "journal record {record} failed to replay: {error}")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Replay { error, .. } => Some(error),
            RecoverError::Corrupt { .. } => None,
        }
    }
}

/// What tolerant recovery had to do to load a journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// The torn tail line that was dropped, if any.
    pub dropped_tail: Option<String>,
    /// Diagnostics describing the recovery (a [`DiagCode::TornJournalTail`]
    /// warning when a tail was dropped).
    pub diagnostics: Report,
    /// The text did not end in a newline, so an append would glue its
    /// record onto the last line.
    pub unterminated: bool,
}

impl RecoveryReport {
    /// Whether the journal loaded without dropping anything.
    pub fn is_clean(&self) -> bool {
        self.dropped_tail.is_none()
    }

    /// Whether records can be appended to the file as it is. A dropped
    /// tail or a missing final newline means the file must first be
    /// rewritten from its intact records ([`JournalDir::compact`]):
    /// otherwise the next record lands on the torn line, and the next
    /// recovery drops it — or, once more records follow, refuses the
    /// whole journal as corrupt.
    pub fn is_appendable(&self) -> bool {
        self.is_clean() && !self.unterminated
    }
}

/// An append-only sequence of session operations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Journal {
    records: Vec<JournalRecord>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends a record.
    pub fn append(&mut self, record: JournalRecord) {
        self.records.push(record);
    }

    /// The records, oldest first.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes to JSON lines: one compact record per line, trailing
    /// newline after each — the append-only on-disk format.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        for r in &self.records {
            render_line(&mut out, r.into());
        }
        String::from_utf8(out).expect("the renderer writes UTF-8")
    }

    /// Parses JSON lines tolerantly.
    ///
    /// Blank lines are skipped. An unparseable **final** record is the
    /// signature of a crash mid-append: it is dropped and reported in the
    /// [`RecoveryReport`]. An unparseable record anywhere *else* means
    /// the journal body is corrupt and recovery fails.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Corrupt`] for a bad non-final record.
    pub fn from_jsonl(text: &str) -> Result<(Journal, RecoveryReport), RecoverError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut records = Vec::with_capacity(lines.len());
        let mut report = RecoveryReport {
            unterminated: !text.is_empty() && !text.ends_with('\n'),
            ..RecoveryReport::default()
        };
        let last = lines.len().saturating_sub(1);
        for (i, (line_no, line)) in lines.iter().enumerate() {
            match foundation::json::decode::<JournalRecord>(line) {
                Ok(r) => records.push(r),
                Err(e) if i == last => {
                    report.dropped_tail = Some((*line).to_owned());
                    report.diagnostics.push(Diagnostic::new(
                        DiagCode::TornJournalTail,
                        Span::default(),
                        format!("dropped torn tail record at line {}: {e}", line_no + 1),
                    ));
                }
                Err(e) => {
                    return Err(RecoverError::Corrupt {
                        line: line_no + 1,
                        detail: e.to_string(),
                    })
                }
            }
        }
        Ok((Journal { records }, report))
    }

    /// Replays the journal against a fresh session on `space`/`root`,
    /// reconstructing the exact focus, bindings, log and stale flags.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Replay`] if a record no longer applies (e.g. the
    /// space changed underneath the journal).
    pub fn replay<'a>(
        &self,
        space: &'a DesignSpace,
        root: CdoId,
    ) -> Result<ExplorationSession<'a>, RecoverError> {
        let mut session = ExplorationSession::new(space, root);
        for (i, record) in self.records.iter().enumerate() {
            apply_record(&mut session, record)
                .map_err(|error| RecoverError::Replay { record: i, error })?;
        }
        Ok(session)
    }

    /// The minimal journal that replays to `session`'s exact state: one
    /// `SetRequirement` or `Decide` per logged decision, plus an
    /// `Annotate` per recorded note — what compaction writes over a
    /// long journal. The checkpoint is verified by replay against the
    /// session's focus, bindings and log before it is returned.
    ///
    /// `None` when the log holds stale decisions (revision history has
    /// no fresh-decide form) or the checkpoint does not replay to the
    /// same state.
    pub fn checkpoint(session: &ExplorationSession<'_>) -> Option<Journal> {
        let mut checkpoint = Journal::new();
        for d in session.log() {
            if d.stale {
                return None;
            }
            let (name, value) = (d.property.clone(), d.value.clone());
            checkpoint.append(match d.kind {
                PropertyKind::Requirement => JournalRecord::SetRequirement { name, value },
                _ => JournalRecord::Decide { name, value },
            });
            if let Some(note) = &d.note {
                checkpoint.append(JournalRecord::Annotate {
                    name: d.property.clone(),
                    note: note.clone(),
                });
            }
        }
        // Sessions start at their root, and the first decision remembers
        // the focus it left.
        let root = session
            .log()
            .first()
            .map_or(session.focus(), |d| d.prev_focus);
        let replayed = checkpoint.replay(session.space(), root).ok()?;
        let same = replayed.focus() == session.focus()
            && replayed.bindings() == session.bindings()
            && replayed.log() == session.log();
        same.then_some(checkpoint)
    }
}

fn apply_record(session: &mut ExplorationSession<'_>, record: &JournalRecord) -> Result<(), DseError> {
    match record {
        JournalRecord::SetRequirement { name, value } => {
            session.set_requirement(name, value.clone())
        }
        JournalRecord::Decide { name, value } => session.decide(name, value.clone()),
        JournalRecord::Undo => session.undo().map(|_| ()),
        JournalRecord::Revise { name, value } => session.revise(name, value.clone()).map(|_| ()),
        JournalRecord::Reaffirm { name } => {
            session.reaffirm(name);
            Ok(())
        }
        JournalRecord::Annotate { name, note } => session.annotate(name, note.clone()),
    }
}

/// A directory of per-session journals: the single, configurable home
/// for on-disk decision journals, replacing caller-supplied ad-hoc
/// paths. Each session id owns exactly one file, `<id>.jsonl`, and ids
/// are restricted to a filesystem-safe alphabet so an id can never
/// escape the directory.
///
/// Records reach a journal through a [`JournalAppender`], which holds
/// the file open across appends; a journal is replaced whole only by
/// [`compact`](Self::compact).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalDir {
    dir: PathBuf,
}

/// File extension used for journal files inside a [`JournalDir`].
const JOURNAL_EXT: &str = "jsonl";

/// Suffix for in-progress compaction files (`<id>.jsonl.tmp`). A crash
/// mid-compaction leaves one behind; the live journal is still
/// authoritative, so boot simply sweeps them away.
const COMPACT_TMP_SUFFIX: &str = ".jsonl.tmp";

impl JournalDir {
    /// Opens (creating if needed) the journal directory. Stale
    /// compaction temp files from a crash mid-[`compact`](Self::compact)
    /// are swept away — the live journals they shadowed are intact.
    ///
    /// # Errors
    ///
    /// Any error creating the directory.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<JournalDir> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let journals = JournalDir { dir };
        journals.sweep_stale_temps()?;
        Ok(journals)
    }

    fn sweep_stale_temps(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_temp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(COMPACT_TMP_SUFFIX));
            if is_temp {
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Whether `id` is a usable session id: 1–128 characters drawn from
    /// `[A-Za-z0-9._-]`, not starting with a dot (no hidden files, no
    /// `..` traversal).
    pub fn is_valid_id(id: &str) -> bool {
        !id.is_empty()
            && id.len() <= 128
            && !id.starts_with('.')
            && id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    }

    fn checked_id(id: &str) -> io::Result<&str> {
        if JournalDir::is_valid_id(id) {
            Ok(id)
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid session id {id:?}"),
            ))
        }
    }

    /// The file a session id maps to.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for an invalid id.
    pub fn file_for(&self, id: &str) -> io::Result<PathBuf> {
        let id = JournalDir::checked_id(id)?;
        Ok(self.dir.join(format!("{id}.{JOURNAL_EXT}")))
    }

    /// Atomically replaces `id`'s journal with `checkpoint`'s records —
    /// the compaction step of the journal lifecycle. The checkpoint is
    /// written to a `.jsonl.tmp` sidecar, flushed to disk, then renamed
    /// over the live journal, so a crash at any instant leaves either
    /// the old journal or the complete new one on disk — never a torn
    /// mixture ([`JournalDir::create`] sweeps any leftover temp).
    ///
    /// # Errors
    ///
    /// An invalid id, or any I/O error; on error the live journal is
    /// untouched.
    pub fn compact(&self, id: &str, checkpoint: &Journal) -> io::Result<()> {
        let live = self.file_for(id)?;
        let temp = self.dir.join(format!(
            "{id}{COMPACT_TMP_SUFFIX}",
            id = JournalDir::checked_id(id)?
        ));
        {
            let mut file = fs::File::create(&temp)?;
            file.write_all(checkpoint.to_jsonl().as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&temp, &live)
    }

    /// Whether `id` has a journal on disk.
    pub fn exists(&self, id: &str) -> bool {
        self.file_for(id).map(|p| p.is_file()).unwrap_or(false)
    }

    /// Loads and tolerantly parses `id`'s journal. `Ok(None)` when no
    /// journal exists.
    ///
    /// # Errors
    ///
    /// An invalid id or a read error (outer); a corrupt journal body
    /// (inner [`RecoverError`]).
    pub fn recover(
        &self,
        id: &str,
    ) -> io::Result<Option<Result<(Journal, RecoveryReport), RecoverError>>> {
        let path = self.file_for(id)?;
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Some(Journal::from_jsonl(&text)))
    }

    /// Deletes `id`'s journal (a cleanly closed session needs no
    /// recovery). Returns whether a file was removed.
    ///
    /// # Errors
    ///
    /// An invalid id, or any error other than the file being absent.
    pub fn remove(&self, id: &str) -> io::Result<bool> {
        match fs::remove_file(self.file_for(id)?) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Opens (creating if needed) `id`'s journal file for appending —
    /// the handle a [`JournalAppender`] holds across appends.
    fn open_append(&self, id: &str) -> io::Result<fs::File> {
        OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.file_for(id)?)
    }

    /// Every session id with a journal in the directory, sorted.
    ///
    /// # Errors
    ///
    /// Any directory-read error.
    pub fn ids(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(JOURNAL_EXT) {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if JournalDir::is_valid_id(stem) {
                    out.push(stem.to_owned());
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

/// A per-session append handle over one [`JournalDir`] journal: the
/// one way records reach a journal file.
///
/// The file is opened on the first append and held across appends (a
/// daemon holds one per *live* session, bounded by its session cap).
/// Each record is rendered into a buffer the appender keeps, then
/// written with one unbuffered `write_all`, so every append hits the
/// kernel before returning and a crash tears at most the final record —
/// exactly what [`Journal::from_jsonl`]'s tolerant recovery expects. A
/// warm append allocates nothing.
///
/// The handle must be [`invalidate`](Self::invalidate)d whenever the
/// underlying file is replaced or removed (compaction renames a fresh
/// checkpoint over the live journal, leaving an open handle pointed at
/// the unlinked inode); any append error also drops it, so the next
/// append reopens from a clean slate.
#[derive(Debug, Default)]
pub struct JournalAppender {
    file: Option<fs::File>,
    /// The rendered line, reused across appends.
    line: Vec<u8>,
}

impl JournalAppender {
    /// A closed appender; the first append opens the file.
    pub fn new() -> JournalAppender {
        JournalAppender::default()
    }

    /// Appends one record through the held handle, opening (and
    /// creating) the file on first use.
    ///
    /// # Errors
    ///
    /// An invalid id, or any I/O error — after which the handle is
    /// dropped so the next append reopens the file.
    pub fn append(&mut self, dir: &JournalDir, id: &str, record: &JournalRecord) -> io::Result<()> {
        self.write(dir, id, record.into())
    }

    /// Appends the record that re-makes a session's logged decision
    /// (`SetRequirement` for a requirement, `Decide` otherwise), rendered
    /// straight from the log entry.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn append_decision(
        &mut self,
        dir: &JournalDir,
        id: &str,
        decision: &Decision,
    ) -> io::Result<()> {
        self.write(dir, id, decision.into())
    }

    fn write(&mut self, dir: &JournalDir, id: &str, line: Line<'_>) -> io::Result<()> {
        if self.file.is_none() {
            self.file = Some(dir.open_append(id)?);
        }
        self.line.clear();
        render_line(&mut self.line, line);
        let file = self.file.as_mut().expect("handle opened above");
        let result = file.write_all(&self.line);
        if result.is_err() {
            self.file = None;
        }
        result
    }

    /// Whether a handle is currently held open.
    pub fn is_open(&self) -> bool {
        self.file.is_some()
    }

    /// Drops the held handle; the next append reopens the file. Call
    /// after anything that replaces or removes the journal file
    /// (compaction, removal) so stale handles never write to an
    /// unlinked inode.
    pub fn invalidate(&mut self) {
        self.file = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_json() {
        let records = vec![
            JournalRecord::SetRequirement {
                name: "EOL".into(),
                value: Value::Int(768),
            },
            JournalRecord::Decide {
                name: "Algorithm".into(),
                value: Value::from("Montgomery"),
            },
            JournalRecord::Undo,
            JournalRecord::Revise {
                name: "EOL".into(),
                value: Value::Int(512),
            },
            JournalRecord::Reaffirm {
                name: "Algorithm".into(),
            },
            JournalRecord::Annotate {
                name: "EOL".into(),
                note: "from the spec\nsecond line".into(),
            },
        ];
        let mut j = Journal::new();
        for r in records.clone() {
            j.append(r);
        }
        let text = j.to_jsonl();
        assert_eq!(text.lines().count(), records.len(), "one line per record");
        let (back, report) = Journal::from_jsonl(&text).unwrap();
        assert!(report.is_clean());
        assert_eq!(back.records(), records.as_slice());
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let mut j = Journal::new();
        j.append(JournalRecord::SetRequirement {
            name: "EOL".into(),
            value: Value::Int(64),
        });
        j.append(JournalRecord::Undo);
        let mut text = j.to_jsonl();
        // Simulate a crash mid-append: half a record at the end.
        text.push_str("{\"Decide\":{\"name\":\"Alg");
        let (back, report) = Journal::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 2, "only the torn tail dropped");
        assert!(!report.is_clean());
        assert!(report.dropped_tail.as_deref().unwrap().contains("Decide"));
        assert_eq!(
            report.diagnostics.diagnostics()[0].code,
            DiagCode::TornJournalTail
        );
    }

    #[test]
    fn corrupt_middle_record_refuses_recovery() {
        let mut j = Journal::new();
        j.append(JournalRecord::Undo);
        j.append(JournalRecord::Undo);
        let text = j.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "not json at all");
        let garbled = lines.join("\n");
        let err = Journal::from_jsonl(&garbled).unwrap_err();
        assert!(matches!(err, RecoverError::Corrupt { line: 2, .. }), "{err}");
    }

    #[test]
    fn renderer_matches_the_codec_for_every_record_and_value() {
        let names = ["EOL", "quote\" back\\slash\ttab\u{1}", "Größe→𝄞", ""];
        let values = [
            Value::Int(768),
            Value::Int(i64::MIN),
            Value::Real(-0.0),
            Value::Real(1e300),
            Value::Real(0.1),
            Value::Real(8.0),
            Value::Real(f64::NAN),
            Value::from("Montgomery"),
            Value::from("line\nbreak \"quoted\" é→𝄞 \u{7f}"),
            Value::Flag(true),
            Value::Flag(false),
        ];
        let mut records = vec![JournalRecord::Undo];
        for name in names {
            for value in &values {
                let (name, value) = (name.to_owned(), value.clone());
                records.push(JournalRecord::SetRequirement {
                    name: name.clone(),
                    value: value.clone(),
                });
                records.push(JournalRecord::Decide {
                    name: name.clone(),
                    value: value.clone(),
                });
                records.push(JournalRecord::Revise { name, value });
            }
            records.push(JournalRecord::Reaffirm { name: name.into() });
            records.push(JournalRecord::Annotate {
                name: name.into(),
                note: format!("why: {name}\r\n"),
            });
        }
        let mut appended = Vec::new();
        for record in &records {
            let want = foundation::json::encode(record) + "\n";
            let mut line = Vec::new();
            render_line(&mut line, record.into());
            assert_eq!(String::from_utf8(line).unwrap(), want, "{record:?}");
            appended.push(want);
        }
        let journal = Journal {
            records: records.clone(),
        };
        assert_eq!(journal.to_jsonl(), appended.concat());

        // A decision renders as the record that re-makes it.
        let decision = |kind| Decision {
            property: "EOL".into(),
            value: Value::Int(768),
            kind,
            prev_focus: CdoId::default(),
            stale: false,
            note: Some("ignored".into()),
        };
        for (kind, record) in [
            (
                PropertyKind::Requirement,
                JournalRecord::SetRequirement {
                    name: "EOL".into(),
                    value: Value::Int(768),
                },
            ),
            (
                PropertyKind::DesignIssue,
                JournalRecord::Decide {
                    name: "EOL".into(),
                    value: Value::Int(768),
                },
            ),
        ] {
            let mut line = Vec::new();
            render_line(&mut line, (&decision(kind)).into());
            assert_eq!(
                line,
                (foundation::json::encode(&record) + "\n").into_bytes()
            );
        }
    }

    fn temp_journal_dir(tag: &str) -> JournalDir {
        let dir = std::env::temp_dir().join(format!(
            "dse-journal-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        JournalDir::create(dir).unwrap()
    }

    /// Appends each record to `id`'s journal through one appender.
    fn append_all(dir: &JournalDir, id: &str, records: &[JournalRecord]) {
        let mut appender = JournalAppender::new();
        for record in records {
            appender.append(dir, id, record).unwrap();
        }
    }

    fn recovered(dir: &JournalDir, id: &str) -> Journal {
        let (journal, report) = dir.recover(id).unwrap().unwrap().unwrap();
        assert!(report.is_appendable());
        journal
    }

    #[test]
    fn held_open_appender_survives_compaction_and_removal() {
        let dir = temp_journal_dir("appender");
        let req = JournalRecord::SetRequirement {
            name: "EOL".into(),
            value: Value::Int(64),
        };
        let decide = JournalRecord::Decide {
            name: "Algorithm".into(),
            value: Value::from("Montgomery"),
        };

        // Lazy open: a fresh appender holds no handle and has created
        // nothing — `exists` semantics are unchanged by construction.
        let mut appender = JournalAppender::new();
        assert!(!appender.is_open());
        assert!(!dir.exists("s1"));

        // Appends through the held handle land as one line each.
        appender.append(&dir, "s1", &req).unwrap();
        assert!(appender.is_open());
        appender.append(&dir, "s1", &decide).unwrap();
        assert_eq!(
            fs::read_to_string(dir.file_for("s1").unwrap()).unwrap(),
            Journal {
                records: vec![req.clone(), decide.clone()]
            }
            .to_jsonl()
        );
        assert_eq!(
            recovered(&dir, "s1").records(),
            &[req.clone(), decide.clone()]
        );

        // Compaction replaces the file by rename; a stale handle would
        // keep writing to the unlinked inode. Invalidate, then prove
        // the next append lands in the *new* file.
        let mut checkpoint = Journal::new();
        checkpoint.append(req.clone());
        dir.compact("s1", &checkpoint).unwrap();
        appender.invalidate();
        assert!(!appender.is_open());
        appender.append(&dir, "s1", &decide).unwrap();
        assert_eq!(
            recovered(&dir, "s1").records(),
            &[req.clone(), decide.clone()],
            "post-compaction append must reach the replacement file"
        );

        // Removal + invalidate: the next append recreates the journal.
        assert!(dir.remove("s1").unwrap());
        appender.invalidate();
        appender.append(&dir, "s1", &req).unwrap();
        assert!(dir.exists("s1"));
        assert_eq!(recovered(&dir, "s1").len(), 1);
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn journal_dir_appends_and_recovers_per_id() {
        let dir = temp_journal_dir("roundtrip");
        let req = JournalRecord::SetRequirement {
            name: "EOL".into(),
            value: Value::Int(64),
        };
        append_all(&dir, "s1", &[req, JournalRecord::Undo]);
        append_all(&dir, "s2", &[JournalRecord::Undo]);
        assert!(dir.exists("s1"));
        assert!(!dir.exists("never-opened"));
        assert_eq!(dir.ids().unwrap(), vec!["s1".to_owned(), "s2".to_owned()]);

        assert_eq!(recovered(&dir, "s1").len(), 2);
        assert_eq!(recovered(&dir, "s2").len(), 1);
        assert!(dir.recover("s3").unwrap().is_none());

        assert!(dir.remove("s1").unwrap());
        assert!(!dir.remove("s1").unwrap());
        assert_eq!(dir.ids().unwrap(), vec!["s2".to_owned()]);
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn compaction_atomically_replaces_the_journal_and_boot_sweeps_temps() {
        let dir = temp_journal_dir("compact");
        // A history with churn: requirement, decide, undo, decide again.
        let req = JournalRecord::SetRequirement {
            name: "EOL".into(),
            value: Value::Int(64),
        };
        let montgomery = JournalRecord::Decide {
            name: "Algorithm".into(),
            value: Value::from("Montgomery"),
        };
        let classical = JournalRecord::Decide {
            name: "Algorithm".into(),
            value: Value::from("Classical"),
        };
        append_all(
            &dir,
            "s1",
            &[
                req.clone(),
                classical,
                JournalRecord::Undo,
                montgomery.clone(),
            ],
        );
        assert_eq!(recovered(&dir, "s1").len(), 4);

        // The compacted checkpoint carries only the surviving state.
        let mut checkpoint = Journal::new();
        checkpoint.append(req);
        checkpoint.append(montgomery);
        dir.compact("s1", &checkpoint).unwrap();
        assert_eq!(recovered(&dir, "s1").records(), checkpoint.records());
        // No temp file is left behind on success.
        assert!(!dir.path().join("s1.jsonl.tmp").exists());

        // A crash mid-compaction leaves a temp; reopening the directory
        // sweeps it and the live journal stays authoritative.
        std::fs::write(dir.path().join("s1.jsonl.tmp"), "{torn").unwrap();
        let reopened = JournalDir::create(dir.path()).unwrap();
        assert!(!reopened.path().join("s1.jsonl.tmp").exists());
        assert_eq!(recovered(&reopened, "s1").len(), 2);
        // Temp files are invisible to the id sweep even if present.
        assert_eq!(reopened.ids().unwrap(), vec!["s1".to_owned()]);
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn journal_dir_rejects_traversal_ids() {
        let dir = temp_journal_dir("ids");
        for bad in ["", "..", "a/b", ".hidden", "x\\y", "a b", &"x".repeat(129)] {
            assert!(!JournalDir::is_valid_id(bad), "{bad:?}");
            let mut appender = JournalAppender::new();
            assert!(appender.append(&dir, bad, &JournalRecord::Undo).is_err());
        }
        assert!(JournalDir::is_valid_id("session-42.alpha_B"));
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn journal_dir_recover_reports_torn_unterminated_and_corrupt_files() {
        let dir = temp_journal_dir("recover");
        append_all(&dir, "ok", &[JournalRecord::Undo]);
        // Torn tail: a crash mid-append.
        append_all(&dir, "torn", &[JournalRecord::Undo]);
        let torn_path = dir.file_for("torn").unwrap();
        let mut text = std::fs::read_to_string(&torn_path).unwrap();
        text.push_str("{\"Decide\":{\"na");
        std::fs::write(&torn_path, text).unwrap();
        // A complete final record without its newline.
        std::fs::write(dir.file_for("unterminated").unwrap(), "\"Undo\"\n\"Undo\"").unwrap();
        // Mid-body corruption: not recoverable.
        std::fs::write(
            dir.file_for("corrupt").unwrap(),
            "garbage\n{\"Undo\":null}\n",
        )
        .unwrap();

        let slot = |id: &str| dir.recover(id).unwrap().unwrap();
        assert!(matches!(slot("ok"), Ok((_, r)) if r.is_clean() && r.is_appendable()));
        assert!(matches!(slot("torn"), Ok((j, r)) if j.len() == 1 && !r.is_clean()));
        assert!(matches!(
            slot("unterminated"),
            Ok((j, r)) if j.len() == 2 && r.is_clean() && r.unterminated && !r.is_appendable()
        ));
        assert!(matches!(
            slot("corrupt"),
            Err(RecoverError::Corrupt { line: 1, .. })
        ));
        let _ = std::fs::remove_dir_all(dir.path());
    }

    #[test]
    fn empty_and_blank_input_recover_cleanly() {
        let (j, report) = Journal::from_jsonl("").unwrap();
        assert!(j.is_empty());
        assert!(report.is_clean());
        let (j, _) = Journal::from_jsonl("\n\n  \n").unwrap();
        assert!(j.is_empty());
    }
}
