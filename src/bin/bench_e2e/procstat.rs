//! CPU time and peak memory of the harness and its child processes,
//! read from `/proc` (the numbers are 0 where there is no `/proc`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// `/proc/*/stat` counts CPU in `USER_HZ` ticks, which Linux fixes at
/// 100 per second for user space on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

#[derive(Clone, Debug)]
struct Stat {
    pid: u32,
    comm: String,
    /// `Z` once the process has exited and only awaits reaping.
    state: char,
    ppid: u32,
    /// utime + stime + cutime + cstime: the process and the children it
    /// has reaped.
    ticks: u64,
    /// utime + cutime of the same.
    user_ticks: u64,
    start: u64,
}

fn read_stat(pid: u32) -> Option<Stat> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // "pid (comm) state ppid ..." — comm may itself contain spaces and
    // parentheses, so split at the last ')'.
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    let rest: Vec<&str> = text.get(close + 1..)?.split_ascii_whitespace().collect();
    // rest[0] is field 3 (state); field n is rest[n - 3].
    let field = |n: usize| rest.get(n - 3).and_then(|s| s.parse::<u64>().ok());
    Some(Stat {
        pid,
        comm,
        state: rest.first()?.chars().next()?,
        ppid: u32::try_from(field(4)?).ok()?,
        ticks: field(14)? + field(15)? + field(16)? + field(17)?,
        user_ticks: field(14)? + field(16)?,
        start: field(22)?,
    })
}

fn peak_rss_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// The harness and every process descended from it.
fn family() -> Vec<Stat> {
    let me = std::process::id();
    let all: Vec<Stat> = std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(read_stat)
        .collect();
    let mut members: Vec<Stat> = all.iter().filter(|s| s.pid == me).cloned().collect();
    let mut frontier = vec![me];
    while let Some(parent) = frontier.pop() {
        for stat in all.iter().filter(|s| s.ppid == parent && s.pid != me) {
            frontier.push(stat.pid);
            members.push(stat.clone());
        }
    }
    members
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU of the family so far.
    pub cpu_ms: f64,
    /// The user-mode part of it.
    pub user_ms: f64,
    /// Largest `VmHWM` in the family.
    pub peak_rss_mb: f64,
    /// CPU time the hypervisor has given to other guests while this one
    /// wanted it, over all CPUs since boot: the interference a run on a
    /// shared machine cannot see otherwise.
    pub stolen_ms: f64,
}

/// The `steal` column of the machine-wide line of `/proc/stat`.
fn stolen_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| text.lines().next()?.split_ascii_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 1000.0 / TICKS_PER_SECOND)
}

/// Watches the harness's process family across a run: resource samples,
/// and the end-of-run check that no spawned daemon or worker survives.
#[derive(Default)]
pub struct Family {
    /// `(pid, start time)` → command name of every child seen so far.
    children: BTreeMap<(u32, u64), String>,
}

impl Family {
    pub fn sample(&mut self) -> Usage {
        let me = std::process::id();
        let mut usage = Usage { stolen_ms: stolen_ms(), ..Usage::default() };
        for stat in family() {
            usage.cpu_ms += stat.ticks as f64 * 1000.0 / TICKS_PER_SECOND;
            usage.user_ms += stat.user_ticks as f64 * 1000.0 / TICKS_PER_SECOND;
            let rss_mb = peak_rss_kb(stat.pid).unwrap_or(0) as f64 / 1024.0;
            usage.peak_rss_mb = usage.peak_rss_mb.max(rss_mb);
            if stat.pid != me {
                self.children.insert((stat.pid, stat.start), stat.comm);
            }
        }
        usage
    }

    /// Children seen by an earlier [`Family::sample`] that are still
    /// running after `grace` (a reparented orphan keeps its pid and
    /// start time, so it is found even though it is no longer ours).
    pub fn survivors(&self, grace: Duration) -> Vec<String> {
        let deadline = Instant::now() + grace;
        loop {
            let alive: Vec<String> = self
                .children
                .iter()
                .filter(|((pid, start), _)| {
                    read_stat(*pid).is_some_and(|s| s.start == *start && s.state != 'Z')
                })
                .map(|((pid, _), comm)| format!("{comm} (pid {pid})"))
                .collect();
            if alive.is_empty() || Instant::now() >= deadline {
                return alive;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_stat_line_parses() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let me = read_stat(std::process::id()).expect("own stat line");
        assert_eq!(me.pid, std::process::id());
        assert!(me.start > 0);
        assert!(peak_rss_kb(me.pid).unwrap_or(0) > 0);
        let mut family = Family::default();
        assert!(family.sample().peak_rss_mb > 0.0);
        assert!(family.survivors(Duration::ZERO).iter().all(|c| !c.contains("camelot-")));
    }
}
