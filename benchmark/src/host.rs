//! Host-side readings from `/proc`: peak resident set and on-CPU time.

/// `VmHWM` (peak resident set) in MB, parsed from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    let kb: f64 = rest.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// `(on_cpu_ns, runqueue_wait_ns)` parsed from `/proc/<pid>/schedstat` text.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    let on_cpu = it.next()?.parse().ok()?;
    let waited = it.next()?.parse().ok()?;
    Some((on_cpu, waited))
}

/// This process's peak resident set in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// This process's `(on_cpu_ns, runqueue_wait_ns)` so far.
pub fn schedstat() -> Option<(u64, u64)> {
    parse_schedstat(&std::fs::read_to_string("/proc/self/schedstat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured on the host this benchmark was written on.
    const STATUS: &str = "Name:\tsharqfec-benchm\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  193700 kB\nVmSize:\t  128164 kB\nVmLck:\t       0 kB\n\
        VmHWM:\t   91648 kB\nVmRSS:\t   26112 kB\nThreads:\t1\n";

    #[test]
    fn vm_hwm_is_read_in_mb() {
        assert_eq!(parse_vm_hwm_mb(STATUS), Some(89.5));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn schedstat_first_two_fields() {
        assert_eq!(
            parse_schedstat("18012345678 20456789 4242\n"),
            Some((18_012_345_678, 20_456_789))
        );
        assert_eq!(parse_schedstat("17\n"), None);
        assert_eq!(parse_schedstat(""), None);
    }
}
