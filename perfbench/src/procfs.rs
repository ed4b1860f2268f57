//! Process figures from `/proc`: memory high-water mark, resident set,
//! CPU time and context switches.

use std::fs;

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times (100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MiB.
pub fn status_mb(field: &str) -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    kb_field(&text, field).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn kb_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Process CPU time and context switches at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// User time, µs.
    pub user_us: f64,
    /// System time, µs.
    pub sys_us: f64,
    /// Voluntary plus involuntary context switches over live threads.
    pub switches: u64,
}

impl Cpu {
    /// Read the current figures.
    pub fn now() -> Cpu {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let after = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        let mut switches = 0;
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                let text = fs::read_to_string(t.path().join("status")).unwrap_or_default();
                for field in ["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"] {
                    switches += count_field(&text, field).unwrap_or(0);
                }
            }
        }
        Cpu {
            user_us: ticks(11) / TICKS_PER_S * 1e6,
            sys_us: ticks(12) / TICKS_PER_S * 1e6,
            switches,
        }
    }

    /// Figures accrued since `before`.
    pub fn since(self, before: Cpu) -> Cpu {
        Cpu {
            user_us: self.user_us - before.user_us,
            sys_us: self.sys_us - before.sys_us,
            switches: self.switches.saturating_sub(before.switches),
        }
    }
}

fn count_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(kb_field(text, "VmHWM"), Some(2048));
        assert_eq!(kb_field(text, "VmRSS"), Some(1024));
        assert_eq!(count_field(text, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(kb_field(text, "VmSwap"), None);
    }

    #[test]
    fn live_figures_are_positive() {
        assert!(status_mb("VmHWM") > 0.0);
        let c = Cpu::now();
        assert!(c.switches > 0);
    }
}
