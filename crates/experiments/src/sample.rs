//! `repro profile --sample`: where the wall time went, by leaf function.
//!
//! While the profiled sweep runs, `ITIMER_PROF` raises `SIGPROF` every
//! [`PERIOD_US`] µs of the process's CPU time, and the handler stores the
//! interrupted instruction pointer in a fixed static array behind an
//! atomic cursor: no allocation, no lock. After the sweep the samples are
//! symbolised against `nm -C --defined-only -n` of this executable, at the
//! load base `/proc/self/maps` gives the executable, and counted per
//! symbol. Only the leaf frame is kept: release builds have no frame
//! pointers to walk. An address outside the executable is counted under
//! the file it was mapped from, in brackets (`[libc.so.6]`, `[vdso]`).
//!
//! The signal interface is declared `extern "C"` here (`std` already links
//! the C library) and exists for x86_64 Linux only; elsewhere
//! [`Sampler::start`] returns the one-line reason it cannot sample.

use serde::Value;

/// The sampling period, in microseconds of process CPU time.
pub const PERIOD_US: i64 = 1_000;

/// A running sampler; [`Sampler::finish`] stops it.
#[derive(Debug)]
pub struct Sampler(());

impl Sampler {
    /// Installs the handler and arms the timer. A process holds at most one
    /// sampler at a time.
    ///
    /// # Errors
    ///
    /// The reason this platform or process cannot sample.
    pub fn start() -> Result<Sampler, String> {
        imp::start().map(|()| Sampler(()))
    }

    /// Disarms the timer and symbolises what was taken: `{total, leaves}`
    /// with leaves by count, largest first (name order among equals), or
    /// `{total, unsymbolised}` naming why there are no names.
    pub fn finish(self) -> Value {
        let taken = imp::stop();
        let (key, value) = match imp::symbolise(&taken.kept) {
            Ok(leaves) => {
                let leaves = leaves.into_iter().map(|(name, n)| (name, Value::UInt(n)));
                ("leaves", Value::Object(leaves.collect()))
            }
            Err(why) => ("unsymbolised", Value::Str(why)),
        };
        Value::Object(vec![("total".to_owned(), Value::UInt(taken.total)), (key.to_owned(), value)])
    }
}

/// What the handler took: every signal counted, the first
/// [`imp::CAPACITY`] addresses kept.
struct Taken {
    total: u64,
    kept: Vec<usize>,
}

/// Counts names, largest count first and by name among equals.
fn tally(names: impl Iterator<Item = String>) -> Vec<(String, u64)> {
    let mut counts = std::collections::BTreeMap::new();
    for name in names {
        *counts.entry(name).or_insert(0) += 1;
    }
    let mut leaves: Vec<(String, u64)> = counts.into_iter().collect();
    leaves.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    leaves
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io::Read;
    use std::process::Command;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

    use super::{tally, Taken, PERIOD_US};

    /// Addresses kept: two minutes of CPU time at the sampling period.
    pub(super) const CAPACITY: usize = 1 << 17;

    static SAMPLES: [AtomicUsize; CAPACITY] = [const { AtomicUsize::new(0) }; CAPACITY];
    static CURSOR: AtomicUsize = AtomicUsize::new(0);
    static RUNNING: AtomicBool = AtomicBool::new(false);

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const SIG_IGN: usize = 1;
    /// `uc_mcontext.gregs[REG_RIP]` in glibc's x86_64 `ucontext_t`: 40 bytes
    /// of flags, link and stack, then register 16.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    /// glibc's x86_64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    /// Stores the interrupted instruction pointer; async-signal-safe.
    extern "C" fn on_sigprof(_signum: i32, _info: *mut c_void, context: *mut c_void) {
        // SAFETY: the kernel passes a `ucontext_t` to an `SA_SIGINFO`
        // handler, and `RIP_OFFSET` is its saved instruction pointer.
        let ip = unsafe { context.cast::<u8>().add(RIP_OFFSET).cast::<usize>().read_unaligned() };
        let at = CURSOR.fetch_add(1, Relaxed);
        if let Some(slot) = SAMPLES.get(at) {
            slot.store(ip, Relaxed);
        }
    }

    fn handle(handler: usize) -> Result<(), String> {
        let flags = SA_SIGINFO | SA_RESTART;
        let act = SigAction { handler, mask: [0; 16], flags, restorer: 0 };
        // SAFETY: `act` is a valid `struct sigaction`; the old one is not read.
        match unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) } {
            0 => Ok(()),
            _ => Err(format!("sigaction(SIGPROF): {}", std::io::Error::last_os_error())),
        }
    }

    fn arm(usec: i64) -> Result<(), String> {
        let period = || TimeVal { sec: 0, usec };
        let timer = ITimerVal { interval: period(), value: period() };
        // SAFETY: `timer` is a valid `struct itimerval`; the old one is not read.
        match unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) } {
            0 => Ok(()),
            _ => Err(format!("setitimer(ITIMER_PROF): {}", std::io::Error::last_os_error())),
        }
    }

    pub(super) fn start() -> Result<(), String> {
        if RUNNING.swap(true, Relaxed) {
            return Err("a sampler is already running".to_owned());
        }
        CURSOR.store(0, Relaxed);
        handle(on_sigprof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize)?;
        arm(PERIOD_US)
    }

    pub(super) fn stop() -> Taken {
        // Disarmed first; a signal still pending then finds it ignored.
        arm(0).and_then(|()| handle(SIG_IGN)).expect("a running sampler stops");
        RUNNING.store(false, Relaxed);
        let total = CURSOR.load(Relaxed);
        let kept = SAMPLES[..total.min(CAPACITY)].iter().map(|s| s.load(Relaxed)).collect();
        Taken { total: total as u64, kept }
    }

    /// One mapping of `/proc/self/maps`: `[start, end)`, file offset, path.
    struct Mapping {
        start: usize,
        end: usize,
        offset: usize,
        path: String,
    }

    fn mappings() -> Result<Vec<Mapping>, String> {
        let text = std::fs::read_to_string("/proc/self/maps")
            .map_err(|e| format!("cannot read /proc/self/maps: {e}"))?;
        let hex = |s: &str| usize::from_str_radix(s, 16).ok();
        let parse = |line: &str| {
            let mut fields = line.split_whitespace();
            let (range, _, offset) = (fields.next()?, fields.next()?, fields.next()?);
            let (start, end) = range.split_once('-')?;
            let path = fields.nth(2).unwrap_or("").to_owned();
            Some(Mapping { start: hex(start)?, end: hex(end)?, offset: hex(offset)?, path })
        };
        Ok(text.lines().filter_map(parse).collect())
    }

    /// `(address, name)` of every function `nm` lists, by address.
    fn symbols() -> Result<Vec<(usize, String)>, String> {
        // `/proc/self` would be `nm`'s own.
        let exe = format!("/proc/{}/exe", std::process::id());
        let out = Command::new("nm")
            .args(["-C", "--defined-only", "-n", &exe])
            .output()
            .map_err(|e| format!("cannot run nm: {e}"))?;
        if !out.status.success() {
            return Err(format!("nm failed: {}", String::from_utf8_lossy(&out.stderr).trim()));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let parse = |line: &str| {
            let mut fields = line.splitn(3, ' ');
            let (address, kind, name) = (fields.next()?, fields.next()?, fields.next()?);
            if !matches!(kind, "T" | "t" | "W" | "w") {
                return None;
            }
            Some((usize::from_str_radix(address, 16).ok()?, name.to_owned()))
        };
        let symbols: Vec<(usize, String)> = text.lines().filter_map(parse).collect();
        match symbols.is_empty() {
            true => Err(format!("nm lists no functions in {exe} (a stripped binary?)")),
            false => Ok(symbols),
        }
    }

    pub(super) fn symbolise(ips: &[usize]) -> Result<Vec<(String, u64)>, String> {
        let maps = mappings()?;
        let exe = std::fs::read_link("/proc/self/exe")
            .map_err(|e| format!("cannot read /proc/self/exe: {e}"))?;
        let exe = exe.to_string_lossy();
        // A position-independent executable's symbols are offsets from the
        // start of its first mapping; a fixed-address one's are addresses.
        let mut header = [0; 18];
        File::open("/proc/self/exe")
            .and_then(|mut f| f.read_exact(&mut header))
            .map_err(|e| format!("{exe}: {e}"))?;
        let position_independent = header[16..] == [3, 0];
        let base = match maps.iter().find(|m| m.path == exe && m.offset == 0) {
            Some(m) if position_independent => m.start,
            Some(_) => 0,
            None => return Err(format!("{exe} is not in /proc/self/maps")),
        };
        let symbols = symbols()?;
        let name = |ip: usize| -> String {
            match maps.iter().find(|m| (m.start..m.end).contains(&ip)) {
                Some(m) if m.path == exe => {
                    let at = symbols.partition_point(|(start, _)| *start <= ip - base);
                    at.checked_sub(1)
                        .map_or("[before the first symbol]".to_owned(), |i| symbols[i].1.clone())
                }
                Some(m) if m.path.starts_with('[') => m.path.clone(),
                Some(m) if !m.path.is_empty() => {
                    format!("[{}]", m.path.rsplit('/').next().unwrap_or(&m.path))
                }
                _ => "[anonymous]".to_owned(),
            }
        };
        Ok(tally(ips.iter().map(|&ip| name(ip))))
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::Taken;

    pub(super) fn start() -> Result<(), String> {
        Err("--sample reads SIGPROF's instruction pointer on x86_64 Linux only".to_owned())
    }

    pub(super) fn stop() -> Taken {
        unreachable!("no sampler starts on this platform")
    }

    pub(super) fn symbolise(_: &[usize]) -> Result<Vec<(String, u64)>, String> {
        unreachable!("no sampler starts on this platform")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_are_counted_largest_first_and_by_name_among_equals() {
        let names = ["b", "a", "c", "b", "a", "b"].map(str::to_owned);
        let leaves = tally(names.into_iter());
        assert_eq!(leaves, [("b".to_owned(), 3), ("a".to_owned(), 2), ("c".to_owned(), 1)]);
    }
}
