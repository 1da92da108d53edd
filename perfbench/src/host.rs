//! Process counters from `/proc` and the host fingerprint printed with
//! every result, so a number from another machine can be told apart.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Duration;

/// User + system CPU time of the whole process (every thread, living or
/// exited) so far.
pub fn cpu_time() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Duration::from_nanos((u + s) * 1_000_000_000 / clk_tck()),
        _ => Duration::ZERO,
    }
}

/// CPU steal of the host so far, in clock ticks summed over its CPUs:
/// time the hypervisor gave this machine's virtual CPUs to other guests.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    // `cpu  user nice system idle iowait irq softirq steal ...`
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Clock ticks per second of `/proc/self/stat`: the kernel's
/// `AT_CLKTCK` auxiliary vector entry, read once.
fn clk_tck() -> u64 {
    static TCK: OnceLock<u64> = OnceLock::new();
    *TCK.get_or_init(|| {
        const AT_CLKTCK: u64 = 17;
        let auxv = fs::read("/proc/self/auxv").unwrap_or_default();
        auxv.chunks_exact(16)
            .map(|e| {
                let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
                (word(&e[..8]), word(&e[8..]))
            })
            .find_map(|(k, v)| (k == AT_CLKTCK && v > 0).then_some(v))
            .unwrap_or(100)
    })
}

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    status_field("VmHWM:").unwrap_or(0)
}

/// Threads the process has right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    Some(s.trim().to_string()).filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every file under `dirs`, visited in sorted path order:
/// identifies the measured source when no git metadata is present.
fn source_digest(dirs: &[&str]) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = fs::read(f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One JSON object naming the git revision, source digest, CPU model,
/// `nproc` and `rustc --version`.
pub fn fingerprint() -> String {
    let rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unavailable".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let digest = source_digest(&[
        "crates/chan/src",
        "crates/core/src",
        "crates/net/src",
        "perfbench/src",
    ]);
    format!(
        "{{\"git_rev\": {}, \"source_digest\": \"{digest}\", \"cpu_model\": {}, \"nproc\": {nproc}, \"rustc\": {}}}",
        json_str(&rev),
        json_str(&cpu_model()),
        json_str(&rustc)
    )
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
