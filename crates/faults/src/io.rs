//! Host-side I/O fault injection behind a zero-cost [`Storage`] trait.
//!
//! PR 3 made the *simulated* kernel degrade gracefully under injected
//! faults; this module does the same for the *host* pipeline. Every
//! artifact writer in the workspace — the trace store, the obs
//! exporters, the result store behind `--resume` and the sweep service —
//! performs its filesystem traffic through a [`Storage`]
//! implementation:
//!
//! * [`DiskStorage`] — the null layer: plain `std::fs` calls, no fault
//!   hooks. Generic consumers monomorphize to exactly the pre-fault
//!   code, the same zero-cost bar as `NullRecorder`/`NullFaults`.
//! * [`FaultyStorage`] — wraps every operation with a deterministic,
//!   seeded [`IoFaults`] decision: injected write failure, ENOSPC,
//!   torn write, silent bit flip, or a slow-I/O delay.
//!
//! The decision streams are pure functions of the seed (never
//! wall-clock), one independent stream per fault class, mirroring
//! [`FaultPlan`](crate::FaultPlan). Consumers pair the trait with
//! [`retry_io`] for bounded retry-with-backoff on transient failures.

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Writes `bytes` to `path` atomically (tmp + rename) on the null
/// storage layer.
///
/// This is the workspace-wide atomic-write primitive: a crash can leave
/// behind a stale `*.tmp` sibling but never a half-written artifact at
/// the final path.
///
/// # Errors
///
/// Propagates the underlying filesystem error; the temporary file is
/// removed on failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    DiskStorage.write_atomic(path, bytes)
}

/// The filesystem surface the host-side artifact writers go through.
///
/// Implementations must be cheap to clone; clones share fault state so
/// a single seeded [`IoFaults`] drives every consumer in a process.
pub trait Storage: Clone + Send + Sync + 'static {
    /// Streaming write handle (what chunked writers wrap in a
    /// `BufWriter`).
    type File: Write + Send;
    /// Streaming read handle; seekable, so a reader can check a file's
    /// footer from its end before streaming it from the start.
    type ReadFile: Read + Seek + Send;

    /// True when fault hooks are live. Lets cold paths skip
    /// fault-bookkeeping entirely; `DiskStorage` reports `false`.
    const FAULTY: bool;

    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn create(&self, path: &Path) -> io::Result<Self::File>;

    /// Opens `path` for reading.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn open(&self, path: &Path) -> io::Result<Self::ReadFile>;

    /// Reads the whole of `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes `bytes` to `path` in one shot (non-atomic).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Renames `from` to `to`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and all missing parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Flushes `path` — a file or a directory — to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem (or injected) error.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Writes `bytes` to `path` atomically: a `*.tmp` sibling is
    /// written in full, then renamed over the final path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying error; the temporary file is removed
    /// if the rename fails.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        replace_via_tmp(self, path, bytes, false)
    }

    /// [`write_atomic`](Storage::write_atomic) that also survives a
    /// power cut: the temporary is synced before the rename and the
    /// directory after it, so the new bytes are on stable storage when
    /// this returns.
    ///
    /// # Errors
    ///
    /// As [`write_atomic`](Storage::write_atomic).
    fn write_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        replace_via_tmp(self, path, bytes, true)
    }
}

/// The one tmp + rename implementation behind [`Storage::write_atomic`]
/// and [`Storage::write_durable`].
fn replace_via_tmp<S: Storage>(
    storage: &S,
    path: &Path,
    bytes: &[u8],
    durable: bool,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    storage.write(tmp, bytes)?;
    if durable {
        storage.sync(tmp)?;
    }
    storage.rename(tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(tmp);
    })?;
    match path
        .parent()
        .filter(|d| durable && !d.as_os_str().is_empty())
    {
        Some(dir) => storage.sync(dir),
        None => Ok(()),
    }
}

/// The null storage layer: plain `std::fs`, no fault hooks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStorage;

impl Storage for DiskStorage {
    type File = File;
    type ReadFile = File;

    const FAULTY: bool = false;

    fn create(&self, path: &Path) -> io::Result<File> {
        File::create(path)
    }

    fn open(&self, path: &Path) -> io::Result<File> {
        File::open(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
}

/// One class of injected host-I/O fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// The write fails outright with a transient error (retryable).
    WriteFail,
    /// The write fails with ENOSPC semantics (permanent; not retried).
    DiskFull,
    /// Only a prefix of the buffer reaches the file, then the write
    /// errors — what a crash mid-`write(2)` leaves behind.
    TornWrite,
    /// One bit of the buffer is flipped and the write *succeeds* —
    /// silent corruption, detectable only by checksums/fsck.
    BitFlip,
    /// The operation completes after an injected delay.
    SlowIo,
}

/// Raw per-class injection rates for a custom [`IoFaults`].
///
/// All probabilities are per storage operation, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultConfig {
    /// Probability a write fails with a transient error.
    pub write_fail_p: f64,
    /// Probability a write fails with ENOSPC semantics.
    pub disk_full_p: f64,
    /// Probability a write is torn (prefix lands, then an error).
    pub torn_write_p: f64,
    /// Probability one bit of the payload is silently flipped.
    pub bit_flip_p: f64,
    /// Probability the operation is delayed by [`slow_delay`].
    ///
    /// [`slow_delay`]: IoFaultConfig::slow_delay
    pub slow_io_p: f64,
    /// Host-time delay injected by a slow-I/O event.
    pub slow_delay: Duration,
}

impl Default for IoFaultConfig {
    fn default() -> IoFaultConfig {
        IoFaultConfig {
            write_fail_p: 0.0,
            disk_full_p: 0.0,
            torn_write_p: 0.0,
            bit_flip_p: 0.0,
            slow_io_p: 0.0,
            slow_delay: Duration::from_millis(1),
        }
    }
}

/// What the injection engine decided for one write operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteDecision {
    /// No fault; optionally after a delay (handled before returning).
    Clean,
    /// Fail with a transient error.
    Fail,
    /// Fail with ENOSPC semantics.
    Full,
    /// Write only `keep` bytes, then fail.
    Torn { keep: usize },
    /// Flip bit `bit` of byte `byte`, then succeed.
    Flip { byte: usize, bit: u8 },
}

/// Counters for every fault the engine injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Storage operations that consulted the engine.
    pub ops: u64,
    /// Transient write failures injected.
    pub write_fails: u64,
    /// ENOSPC failures injected.
    pub disk_fulls: u64,
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Bits silently flipped.
    pub bit_flips: u64,
    /// Slow-I/O delays injected.
    pub delays: u64,
}

impl IoStats {
    /// Total faults injected.
    pub fn injected_total(&self) -> u64 {
        self.write_fails + self.disk_fulls + self.torn_writes + self.bit_flips + self.delays
    }
}

struct IoInner {
    cfg: IoFaultConfig,
    fail_rng: SmallRng,
    full_rng: SmallRng,
    torn_rng: SmallRng,
    flip_rng: SmallRng,
    slow_rng: SmallRng,
    stats: IoStats,
}

/// The seeded host-I/O fault engine.
///
/// Decision streams are pure functions of the seed and the operation
/// sequence, one independent [`SmallRng`] per fault class (the
/// [`FaultPlan`](crate::FaultPlan) salting discipline), so the same
/// rates and seed inject the same faults on every run. Clones share
/// state: one engine drives every [`FaultyStorage`] consumer in a
/// process and the stats accumulate centrally.
#[derive(Clone)]
pub struct IoFaults {
    inner: Arc<Mutex<IoInner>>,
}

impl std::fmt::Debug for IoFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoFaults").finish_non_exhaustive()
    }
}

/// Marker string carried by every injected (non-silent) I/O error.
pub const INJECTED_IO_MARKER: &str = "injected I/O fault";

fn injected_error(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("{INJECTED_IO_MARKER}: {what}"))
}

impl IoFaults {
    /// An engine with raw rates.
    pub fn new(cfg: IoFaultConfig, seed: u64) -> IoFaults {
        let salted =
            |salt: u64| SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        IoFaults {
            inner: Arc::new(Mutex::new(IoInner {
                cfg,
                fail_rng: salted(1),
                full_rng: salted(2),
                torn_rng: salted(3),
                flip_rng: salted(4),
                slow_rng: salted(5),
                stats: IoStats::default(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, IoInner> {
        // A panic while holding the lock only loses fault counters.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> IoStats {
        self.lock().stats
    }

    /// Decides the fate of one `len`-byte write. Sleeps here if a
    /// slow-I/O delay fires (delays compose with any other outcome).
    fn on_write(&self, len: usize) -> WriteDecision {
        let mut delay = None;
        let decision = {
            let g = &mut *self.lock();
            g.stats.ops += 1;
            if g.cfg.slow_io_p > 0.0 && g.slow_rng.gen_bool(g.cfg.slow_io_p) {
                g.stats.delays += 1;
                delay = Some(g.cfg.slow_delay);
            }
            if g.cfg.disk_full_p > 0.0 && g.full_rng.gen_bool(g.cfg.disk_full_p) {
                g.stats.disk_fulls += 1;
                WriteDecision::Full
            } else if g.cfg.write_fail_p > 0.0 && g.fail_rng.gen_bool(g.cfg.write_fail_p) {
                g.stats.write_fails += 1;
                WriteDecision::Fail
            } else if len > 0 && g.cfg.torn_write_p > 0.0 && g.torn_rng.gen_bool(g.cfg.torn_write_p)
            {
                g.stats.torn_writes += 1;
                let keep = g.torn_rng.gen_range(0..len);
                WriteDecision::Torn { keep }
            } else if len > 0 && g.cfg.bit_flip_p > 0.0 && g.flip_rng.gen_bool(g.cfg.bit_flip_p) {
                g.stats.bit_flips += 1;
                let byte = g.flip_rng.gen_range(0..len);
                let bit = g.flip_rng.gen_range(0..8u8);
                WriteDecision::Flip { byte, bit }
            } else {
                WriteDecision::Clean
            }
        };
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        decision
    }

    /// Decides the fate of one metadata operation (rename, mkdir,
    /// remove, open): delay and transient/ENOSPC failure only.
    fn on_meta(&self) -> io::Result<()> {
        let decision = self.on_write(0);
        match decision {
            WriteDecision::Full => Err(injected_error(
                io::ErrorKind::StorageFull,
                "no space left on device",
            )),
            WriteDecision::Fail => Err(injected_error(io::ErrorKind::Other, "metadata op failed")),
            _ => Ok(()),
        }
    }

    /// Applies a write decision to `buf` destined for `sink`.
    fn faulty_write<W: Write>(&self, sink: &mut W, buf: &[u8]) -> io::Result<usize> {
        match self.on_write(buf.len()) {
            WriteDecision::Clean => {
                sink.write_all(buf)?;
                Ok(buf.len())
            }
            WriteDecision::Fail => Err(injected_error(io::ErrorKind::Other, "write failed")),
            WriteDecision::Full => Err(injected_error(
                io::ErrorKind::StorageFull,
                "no space left on device",
            )),
            WriteDecision::Torn { keep } => {
                sink.write_all(&buf[..keep])?;
                Err(injected_error(io::ErrorKind::Other, "torn write"))
            }
            WriteDecision::Flip { byte, bit } => {
                let mut corrupted = buf.to_vec();
                corrupted[byte] ^= 1 << bit;
                sink.write_all(&corrupted)?;
                Ok(buf.len())
            }
        }
    }
}

/// True for errors a bounded retry may absorb: injected transient
/// failures, interrupted syscalls, timeouts. ENOSPC-class errors are
/// permanent and reported immediately.
pub fn is_transient(err: &io::Error) -> bool {
    !matches!(
        err.kind(),
        io::ErrorKind::StorageFull
            | io::ErrorKind::QuotaExceeded
            | io::ErrorKind::NotFound
            | io::ErrorKind::PermissionDenied
    )
}

/// Bounded retry-with-backoff parameters for storage consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (first try included). 0 behaves as 1.
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_micros(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub const NONE: RetryPolicy = RetryPolicy {
        attempts: 1,
        base_backoff: Duration::ZERO,
    };
}

/// Runs `op`, retrying transient failures (per [`is_transient`]) up to
/// `policy.attempts` total attempts with doubling backoff.
///
/// # Errors
///
/// Returns the last error once attempts are exhausted, or the first
/// permanent (non-transient) error immediately.
pub fn retry_io<T>(policy: RetryPolicy, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let attempts = policy.attempts.max(1);
    let mut backoff = policy.base_backoff;
    let mut tried = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                tried += 1;
                if tried >= attempts || !is_transient(&e) {
                    return Err(e);
                }
                if backoff > Duration::ZERO {
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }
}

/// A write handle whose every `write` consults the fault engine.
#[derive(Debug)]
pub struct FaultyFile {
    inner: File,
    faults: IoFaults,
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.faults.faulty_write(&mut self.inner, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A read handle that injects delays and silent bit flips on reads.
#[derive(Debug)]
pub struct FaultyReadFile {
    inner: File,
    faults: IoFaults,
}

impl Seek for FaultyReadFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl Read for FaultyReadFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            // Reads only suffer silent corruption and delays; hard read
            // failures are already modelled well by the write side.
            if let WriteDecision::Flip { byte, bit } = self.faults.on_write(n) {
                buf[byte % n] ^= 1 << bit;
            }
        }
        Ok(n)
    }
}

/// The fault-injecting storage layer: [`DiskStorage`] semantics with
/// every operation routed through a shared [`IoFaults`] engine.
#[derive(Debug, Clone)]
pub struct FaultyStorage {
    faults: IoFaults,
}

impl FaultyStorage {
    /// A storage layer driven by `faults` (clone of a shared engine).
    pub fn new(faults: IoFaults) -> FaultyStorage {
        FaultyStorage { faults }
    }

    /// The engine, for reading [`IoStats`].
    pub fn faults(&self) -> &IoFaults {
        &self.faults
    }
}

impl Storage for FaultyStorage {
    type File = FaultyFile;
    type ReadFile = FaultyReadFile;

    const FAULTY: bool = true;

    fn create(&self, path: &Path) -> io::Result<FaultyFile> {
        self.faults.on_meta()?;
        Ok(FaultyFile {
            inner: File::create(path)?,
            faults: self.faults.clone(),
        })
    }

    fn open(&self, path: &Path) -> io::Result<FaultyReadFile> {
        self.faults.on_meta()?;
        Ok(FaultyReadFile {
            inner: File::open(path)?,
            faults: self.faults.clone(),
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut f = self.open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(path)?;
        self.faults.faulty_write(&mut f, bytes).map(|_| ())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.faults.on_meta()?;
        fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.faults.on_meta()?;
        fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.faults.on_meta()?;
        fs::remove_file(path)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.faults.on_meta()?;
        File::open(path)?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ccnuma-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn disk_storage_atomic_write_round_trips() {
        let d = tmpdir("atomic");
        let p = d.join("a.json");
        atomic_write(&p, b"{\"ok\":true}").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"{\"ok\":true}");
        assert!(!d.join("a.json.tmp").exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn durable_atomic_write_round_trips() {
        let d = tmpdir("durable");
        let p = d.join("a.json");
        DiskStorage.write_durable(&p, b"one").unwrap();
        DiskStorage.write_durable(&p, b"two").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"two");
        assert!(!d.join("a.json.tmp").exists());
        assert!(DiskStorage
            .write_durable(&d.join("missing").join("b"), b"x")
            .is_err());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn decision_streams_are_deterministic() {
        let chaos = IoFaultConfig {
            write_fail_p: 0.10,
            disk_full_p: 0.02,
            torn_write_p: 0.05,
            bit_flip_p: 0.05,
            slow_io_p: 0.10,
            slow_delay: Duration::from_millis(1),
        };
        let a = IoFaults::new(chaos, 42);
        let b = IoFaults::new(chaos, 42);
        let da: Vec<_> = (0..200).map(|i| a.on_write(64 + i)).collect();
        let db: Vec<_> = (0..200).map(|i| b.on_write(64 + i)).collect();
        assert_eq!(da, db);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().injected_total() > 0, "chaos must inject");
    }

    #[test]
    fn every_scenario_fires_its_class() {
        let base = IoFaultConfig::default();
        let stats = |cfg| {
            let f = IoFaults::new(cfg, 7);
            for _ in 0..100 {
                let _ = f.on_write(128);
            }
            f.stats()
        };
        let flaky = stats(IoFaultConfig {
            write_fail_p: 0.30,
            ..base
        });
        assert!(flaky.write_fails > 0, "write_fails never fired");
        let full = stats(IoFaultConfig {
            disk_full_p: 0.25,
            ..base
        });
        assert!(full.disk_fulls > 0, "disk_fulls never fired");
        let torn = stats(IoFaultConfig {
            torn_write_p: 0.30,
            ..base
        });
        assert!(torn.torn_writes > 0, "torn_writes never fired");
        let rot = stats(IoFaultConfig {
            bit_flip_p: 0.30,
            ..base
        });
        assert!(rot.bit_flips > 0, "bit_flips never fired");
        let slow = stats(IoFaultConfig {
            slow_io_p: 1.0,
            slow_delay: Duration::from_millis(2),
            ..base
        });
        assert!(slow.delays > 0, "delays never fired");
    }

    #[test]
    fn retry_absorbs_transient_flaky_writes() {
        let d = tmpdir("retry");
        let p = d.join("out.bin");
        let flaky = IoFaultConfig {
            write_fail_p: 0.30,
            ..IoFaultConfig::default()
        };
        let storage = FaultyStorage::new(IoFaults::new(flaky, 3));
        // Each atomic write rolls twice (write + rename), so an attempt
        // fails with p ≈ 0.51; 16 attempts make failure vanishingly rare.
        let policy = RetryPolicy {
            attempts: 16,
            base_backoff: Duration::ZERO,
        };
        for i in 0..20u8 {
            retry_io(policy, || storage.write_atomic(&p, &[i; 32])).unwrap();
        }
        assert_eq!(fs::read(&p).unwrap(), vec![19u8; 32]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn disk_full_is_permanent_and_typed() {
        let err = injected_error(io::ErrorKind::StorageFull, "no space left on device");
        assert!(!is_transient(&err));
        let mut calls = 0;
        let res: io::Result<()> = retry_io(RetryPolicy::default(), || {
            calls += 1;
            Err(injected_error(
                io::ErrorKind::StorageFull,
                "no space left on device",
            ))
        });
        assert_eq!(calls, 1, "ENOSPC must not be retried");
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn torn_write_leaves_prefix_only() {
        let f = IoFaults::new(
            IoFaultConfig {
                torn_write_p: 1.0,
                ..IoFaultConfig::default()
            },
            9,
        );
        let mut sink = Vec::new();
        let err = f.faulty_write(&mut sink, &[0xAB; 100]).unwrap_err();
        assert!(err.to_string().contains(INJECTED_IO_MARKER));
        assert!(sink.len() < 100, "torn write must truncate");
        assert!(sink.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn bit_flip_is_silent_single_bit() {
        let f = IoFaults::new(
            IoFaultConfig {
                bit_flip_p: 1.0,
                ..IoFaultConfig::default()
            },
            11,
        );
        let mut sink = Vec::new();
        let n = f.faulty_write(&mut sink, &[0u8; 64]).unwrap();
        assert_eq!(n, 64);
        assert_eq!(sink.len(), 64);
        let ones: u32 = sink.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one flipped bit");
    }
}
