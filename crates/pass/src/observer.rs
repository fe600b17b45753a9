//! The PASS observer: turns a trace of process/file events into
//! causally-ordered, versioned provenance flushes.
//!
//! The real PASS (Muniswamy-Reddy et al., USENIX ATC '06) intercepts
//! system calls in the kernel; this observer consumes the same
//! information as an explicit [`TraceEvent`] stream (produced here by the
//! `workloads` generators). It reproduces the PASS behaviours the cloud
//! paper depends on:
//!
//! * **records on data flow** — a `read` makes the process depend on the
//!   file version read; a `write` makes the file version depend on the
//!   process version writing (§2.4);
//! * **transient objects** — processes carry their own provenance
//!   (`type`, `name`, `argv`, `env`, `forkparent`, `input`s) and are
//!   flushed like files, minus the data;
//! * **versioning for causality / cycle avoidance** — a file version
//!   freezes once read or persisted, so later writes open a new version
//!   that depends on its predecessor; a process gets a new version when
//!   it reads new input after having produced output, so earlier outputs
//!   never appear to depend on later inputs;
//! * **flush on close** — a file ships to the storage backend when
//!   closed, *after* every object version it references (eventual causal
//!   ordering, §3).

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use simworld::Blob;

use crate::flush::FileFlush;
use crate::model::{process_name, ObjectKind, ObjectRef};
use crate::records::{ProvenanceRecord, RecordKey, RecordValue};

/// One entry of the input trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Declares a pre-existing input file (e.g. source code, a public
    /// data set). Flushed immediately as version 1 with no ancestors.
    Source {
        /// File path.
        path: String,
        /// File content.
        data: Blob,
    },
    /// A process starts.
    Exec {
        /// Process id; must be unique within the trace.
        pid: u32,
        /// Executable name (`cc`, `blastall`, ...).
        exe: String,
        /// Argument vector, pre-joined.
        argv: String,
        /// Environment, pre-joined. Often larger than 1 KB — which is
        /// exactly what overflows SimpleDB values in the paper.
        env: String,
        /// Forking process, if traced.
        parent: Option<u32>,
    },
    /// A process reads a file.
    Read {
        /// Reader pid.
        pid: u32,
        /// File path.
        path: String,
    },
    /// A process writes a file (content is captured at close).
    Write {
        /// Writer pid.
        pid: u32,
        /// File path.
        path: String,
    },
    /// A process closes a file; if the file was written, this is the
    /// moment PASS persists data + provenance.
    Close {
        /// Closing pid.
        pid: u32,
        /// File path.
        path: String,
        /// Final content of this version.
        data: Blob,
    },
    /// A process exits; unfinished provenance is flushed.
    Exit {
        /// Exiting pid.
        pid: u32,
    },
}

/// Errors the observer raises on malformed traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObserverError {
    /// An event referenced a pid never `Exec`ed (or already exited).
    UnknownProcess {
        /// The pid.
        pid: u32,
    },
    /// A read/close referenced a file that does not exist yet.
    UnknownFile {
        /// The path.
        path: String,
    },
    /// Two `Exec` events used the same pid.
    DuplicatePid {
        /// The pid.
        pid: u32,
    },
}

impl fmt::Display for ObserverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserverError::UnknownProcess { pid } => write!(f, "unknown process pid {pid}"),
            ObserverError::UnknownFile { path } => write!(f, "unknown file {path:?}"),
            ObserverError::DuplicatePid { pid } => write!(f, "duplicate pid {pid}"),
        }
    }
}

impl Error for ObserverError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ObserverError>;

#[derive(Debug)]
struct FileState {
    version: u32,
    data: Blob,
    records: Vec<ProvenanceRecord>,
    /// Version may not absorb more writes (it was read or persisted).
    frozen: bool,
    /// Unpersisted changes exist for the current version.
    dirty: bool,
    /// Process versions already recorded as inputs of this version.
    writers: HashSet<ObjectRef>,
}

#[derive(Debug)]
struct ProcState {
    exe: String,
    version: u32,
    records: Vec<ProvenanceRecord>,
    /// Wrote output under the current version.
    has_written: bool,
    /// Current version already emitted.
    flushed: bool,
    /// Files already recorded as inputs of the current version.
    inputs: HashSet<ObjectRef>,
    exited: bool,
}

impl ProcState {
    fn object_ref(&self, pid: u32) -> ObjectRef {
        ObjectRef::new(process_name(pid, &self.exe), self.version)
    }
}

/// The PASS observer.
///
/// Feed [`TraceEvent`]s in order; collect the [`FileFlush`]es it emits —
/// they come out in an order that satisfies causal ordering (every
/// referenced ancestor version is emitted before its descendant).
///
/// # Examples
///
/// ```
/// use pass::{Observer, TraceEvent};
/// use simworld::Blob;
///
/// let mut obs = Observer::new();
/// let mut flushes = Vec::new();
/// for ev in [
///     TraceEvent::source("in.txt", Blob::from("hi")),
///     TraceEvent::exec(1, "wc", "wc in.txt", "PATH=/bin", None),
///     TraceEvent::read(1, "in.txt"),
///     TraceEvent::write(1, "out.txt"),
///     TraceEvent::close(1, "out.txt", Blob::from("1 1 3")),
///     TraceEvent::exit(1),
/// ] {
///     flushes.extend(obs.observe(ev)?);
/// }
/// // in.txt, the wc process, and out.txt — in causal order.
/// let names: Vec<_> = flushes.iter().map(|f| f.object.render()).collect();
/// assert_eq!(names, vec!["in.txt:1", "proc:1:wc:1", "out.txt:1"]);
/// # Ok::<(), pass::ObserverError>(())
/// ```
#[derive(Debug, Default)]
pub struct Observer {
    files: HashMap<String, FileState>,
    procs: HashMap<u32, ProcState>,
    flushed: HashSet<ObjectRef>,
    events_seen: u64,
}

impl Observer {
    /// A fresh observer.
    pub fn new() -> Observer {
        Observer::default()
    }

    /// Number of trace events consumed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Consumes one event; returns the flushes it triggered, ancestors
    /// first.
    ///
    /// # Errors
    ///
    /// [`ObserverError`] on malformed traces (unknown pid/path, reused
    /// pid).
    pub fn observe(&mut self, event: TraceEvent) -> Result<Vec<FileFlush>> {
        self.events_seen += 1;
        let mut out = Vec::new();
        match event {
            TraceEvent::Source { path, data } => self.on_source(path, data, &mut out),
            TraceEvent::Exec {
                pid,
                exe,
                argv,
                env,
                parent,
            } => self.on_exec(pid, exe, argv, env, parent)?,
            TraceEvent::Read { pid, path } => self.on_read(pid, &path, &mut out)?,
            TraceEvent::Write { pid, path } => self.on_write(pid, &path, &mut out)?,
            TraceEvent::Close { pid, path, data } => self.on_close(pid, &path, data, &mut out)?,
            TraceEvent::Exit { pid } => self.on_exit(pid, &mut out)?,
        }
        Ok(out)
    }

    /// Flushes everything still pending (dirty files, unflushed
    /// processes). Call at end of trace.
    pub fn finish(&mut self) -> Vec<FileFlush> {
        let mut out = Vec::new();
        let dirty_files: Vec<String> = self
            .files
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(p, _)| p.clone())
            .collect();
        for path in dirty_files {
            self.flush_file(&path, &mut out);
        }
        let pids: Vec<u32> = self
            .procs
            .iter()
            .filter(|(_, p)| !p.flushed)
            .map(|(pid, _)| *pid)
            .collect();
        for pid in pids {
            self.flush_process(pid, &mut out);
        }
        out
    }

    fn on_source(&mut self, path: String, data: Blob, out: &mut Vec<FileFlush>) {
        let records = vec![
            ProvenanceRecord::named(path.clone()),
            ProvenanceRecord::of_type(ObjectKind::File.type_value()),
        ];
        let state = FileState {
            version: 1,
            data,
            records,
            frozen: true, // a later write opens version 2
            dirty: false,
            writers: HashSet::new(),
        };
        let flush = FileFlush {
            object: ObjectRef::new(path.clone(), 1),
            kind: ObjectKind::File,
            data: state.data.clone(),
            records: state.records.clone(),
        };
        self.files.insert(path, state);
        self.flushed.insert(flush.object.clone());
        out.push(flush);
    }

    fn on_exec(
        &mut self,
        pid: u32,
        exe: String,
        argv: String,
        env: String,
        parent: Option<u32>,
    ) -> Result<()> {
        if self.procs.contains_key(&pid) {
            return Err(ObserverError::DuplicatePid { pid });
        }
        let mut records = vec![
            ProvenanceRecord::of_type(ObjectKind::Process.type_value()),
            ProvenanceRecord::named(exe.clone()),
            ProvenanceRecord::new(RecordKey::Argv, RecordValue::Text(argv)),
            ProvenanceRecord::new(RecordKey::Env, RecordValue::Text(env)),
        ];
        if let Some(ppid) = parent {
            let parent_state = self.live_proc(ppid)?;
            records.push(ProvenanceRecord::new(
                RecordKey::ForkParent,
                RecordValue::Ref(parent_state.object_ref(ppid)),
            ));
        }
        self.procs.insert(
            pid,
            ProcState {
                exe,
                version: 1,
                records,
                has_written: false,
                flushed: false,
                inputs: HashSet::new(),
                exited: false,
            },
        );
        Ok(())
    }

    fn on_read(&mut self, pid: u32, path: &str, out: &mut Vec<FileFlush>) -> Result<()> {
        if !self.files.contains_key(path) {
            return Err(ObserverError::UnknownFile {
                path: path.to_string(),
            });
        }
        self.live_proc(pid)?;

        // Version the process on read-after-write so outputs produced
        // before this read cannot appear to depend on it (cycle
        // avoidance). The old version must reach the backend first.
        if self.procs[&pid].has_written {
            if !self.procs[&pid].flushed {
                self.flush_process(pid, out);
            }
            let proc = self.procs.get_mut(&pid).expect("checked above");
            let prev = proc.object_ref(pid);
            proc.version += 1;
            proc.has_written = false;
            proc.flushed = false;
            proc.inputs.clear();
            proc.records = vec![
                ProvenanceRecord::of_type(ObjectKind::Process.type_value()),
                ProvenanceRecord::named(proc.exe.clone()),
                ProvenanceRecord::input(prev),
            ];
        }

        let file = self.files.get_mut(path).expect("checked above");
        file.frozen = true;
        let file_ref = ObjectRef::new(path.to_string(), file.version);
        let proc = self.procs.get_mut(&pid).expect("checked above");
        if proc.inputs.insert(file_ref.clone()) {
            proc.records.push(ProvenanceRecord::input(file_ref));
        }
        Ok(())
    }

    fn on_write(&mut self, pid: u32, path: &str, out: &mut Vec<FileFlush>) -> Result<()> {
        let proc_ref = self.live_proc(pid)?.object_ref(pid);

        if !self.files.contains_key(path) {
            self.files.insert(
                path.to_string(),
                FileState {
                    version: 0, // bumped to 1 below
                    data: Blob::empty(),
                    records: Vec::new(),
                    frozen: true,
                    dirty: false,
                    writers: HashSet::new(),
                },
            );
        }
        // Freeze-then-version: writing a frozen version opens a new one
        // that depends on its predecessor.
        let needs_new_version = self.files[path].frozen;
        if needs_new_version {
            // A frozen-but-dirty version was read by someone and never
            // closed; persist it before it becomes unreachable.
            if self.files[path].dirty {
                self.flush_file(path, out);
            }
            let file = self.files.get_mut(path).expect("inserted above");
            let prev_version = file.version;
            file.version += 1;
            file.frozen = false;
            file.writers.clear();
            file.records = vec![
                ProvenanceRecord::named(path.to_string()),
                ProvenanceRecord::of_type(ObjectKind::File.type_value()),
            ];
            if prev_version > 0 {
                file.records.push(ProvenanceRecord::input(ObjectRef::new(
                    path.to_string(),
                    prev_version,
                )));
            }
        }
        let file = self.files.get_mut(path).expect("inserted above");
        file.dirty = true;
        if file.writers.insert(proc_ref.clone()) {
            file.records.push(ProvenanceRecord::input(proc_ref));
        }
        self.procs
            .get_mut(&pid)
            .expect("live_proc checked")
            .has_written = true;
        Ok(())
    }

    fn on_close(
        &mut self,
        pid: u32,
        path: &str,
        data: Blob,
        out: &mut Vec<FileFlush>,
    ) -> Result<()> {
        self.live_proc(pid)?;
        let file = self
            .files
            .get_mut(path)
            .ok_or_else(|| ObserverError::UnknownFile {
                path: path.to_string(),
            })?;
        if !file.dirty {
            // Close after read-only access: nothing to persist.
            return Ok(());
        }
        file.data = data;
        self.flush_file(path, out);
        Ok(())
    }

    fn on_exit(&mut self, pid: u32, out: &mut Vec<FileFlush>) -> Result<()> {
        self.live_proc(pid)?;
        if !self.procs[&pid].flushed {
            self.flush_process(pid, out);
        }
        self.procs.get_mut(&pid).expect("checked").exited = true;
        Ok(())
    }

    /// Emits the current version of `path` (ancestors first) and freezes
    /// it.
    fn flush_file(&mut self, path: &str, out: &mut Vec<FileFlush>) {
        let (object, ancestors) = {
            let file = &self.files[path];
            let object = ObjectRef::new(path.to_string(), file.version);
            let ancestors: Vec<ObjectRef> = crate::records::references(&file.records)
                .into_iter()
                .cloned()
                .collect();
            (object, ancestors)
        };
        if self.flushed.contains(&object) {
            return;
        }
        self.ensure_ancestors_flushed(&ancestors, out);
        let file = self.files.get_mut(path).expect("caller verified");
        file.frozen = true;
        file.dirty = false;
        let flush = FileFlush {
            object: object.clone(),
            kind: ObjectKind::File,
            data: file.data.clone(),
            records: file.records.clone(),
        };
        self.flushed.insert(object);
        out.push(flush);
    }

    /// Emits the current version of process `pid` (ancestors first).
    fn flush_process(&mut self, pid: u32, out: &mut Vec<FileFlush>) {
        let (object, ancestors, records) = {
            let proc = &self.procs[&pid];
            let object = proc.object_ref(pid);
            let ancestors: Vec<ObjectRef> = crate::records::references(&proc.records)
                .into_iter()
                .cloned()
                .collect();
            (object, ancestors, proc.records.clone())
        };
        if self.flushed.contains(&object) {
            return;
        }
        self.ensure_ancestors_flushed(&ancestors, out);
        self.procs.get_mut(&pid).expect("caller verified").flushed = true;
        self.flushed.insert(object.clone());
        out.push(FileFlush {
            object,
            kind: ObjectKind::Process,
            data: Blob::empty(),
            records,
        });
    }

    /// Recursively emits any unflushed ancestors. An ancestor reference
    /// always points at the referenced object's *current* version (older
    /// versions were flushed when they were frozen), so flushing the
    /// current state suffices.
    fn ensure_ancestors_flushed(&mut self, ancestors: &[ObjectRef], out: &mut Vec<FileFlush>) {
        for ancestor in ancestors {
            if self.flushed.contains(ancestor) {
                continue;
            }
            if let Some(rest) = ancestor.name.strip_prefix("proc:") {
                let pid: Option<u32> = rest.split(':').next().and_then(|p| p.parse().ok());
                if let Some(pid) = pid {
                    if self.procs.contains_key(&pid) {
                        debug_assert_eq!(
                            self.procs[&pid].version, ancestor.version,
                            "only current process versions may be unflushed"
                        );
                        self.flush_process(pid, out);
                        continue;
                    }
                }
            }
            if self.files.contains_key(&ancestor.name) {
                debug_assert_eq!(
                    self.files[&ancestor.name].version, ancestor.version,
                    "only current file versions may be unflushed"
                );
                self.flush_file(&ancestor.name, out);
            }
        }
    }

    fn live_proc(&self, pid: u32) -> Result<&ProcState> {
        match self.procs.get(&pid) {
            Some(p) if !p.exited => Ok(p),
            _ => Err(ObserverError::UnknownProcess { pid }),
        }
    }
}

impl TraceEvent {
    /// A [`TraceEvent::Source`].
    pub fn source(path: impl Into<String>, data: Blob) -> TraceEvent {
        TraceEvent::Source {
            path: path.into(),
            data,
        }
    }

    /// A [`TraceEvent::Exec`].
    pub fn exec(
        pid: u32,
        exe: impl Into<String>,
        argv: impl Into<String>,
        env: impl Into<String>,
        parent: Option<u32>,
    ) -> TraceEvent {
        TraceEvent::Exec {
            pid,
            exe: exe.into(),
            argv: argv.into(),
            env: env.into(),
            parent,
        }
    }

    /// A [`TraceEvent::Read`].
    pub fn read(pid: u32, path: impl Into<String>) -> TraceEvent {
        TraceEvent::Read {
            pid,
            path: path.into(),
        }
    }

    /// A [`TraceEvent::Write`].
    pub fn write(pid: u32, path: impl Into<String>) -> TraceEvent {
        TraceEvent::Write {
            pid,
            path: path.into(),
        }
    }

    /// A [`TraceEvent::Close`].
    pub fn close(pid: u32, path: impl Into<String>, data: Blob) -> TraceEvent {
        TraceEvent::Close {
            pid,
            path: path.into(),
            data,
        }
    }

    /// A [`TraceEvent::Exit`].
    pub fn exit(pid: u32) -> TraceEvent {
        TraceEvent::Exit { pid }
    }
}
