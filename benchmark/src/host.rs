//! Facts about the machine a result was measured on. Every number in a
//! result file depends on them, so they head the file.

use qvisor_sim::json::Value;
use std::process::Command;

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| first_line(&s))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `nproc`, compiler, commit, kernel and the load average right now.
pub fn facts() -> Value {
    Value::object()
        .set("nproc", nproc())
        .set("rustc", command_line("rustc", &["--version"]))
        .set(
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        )
        .set("kernel", proc_line("/proc/sys/kernel/osrelease"))
        .set("loadavg_at_start", proc_line("/proc/loadavg"))
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_proc() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib().unwrap() > 0.5);
        }
        assert!(nproc() >= 1);
        assert!(facts().get("kernel").is_some());
    }
}
