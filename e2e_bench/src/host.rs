//! Facts about the machine a result was measured on, the process's peak
//! memory, and CPU confinement.

/// A Linux `cpu_set_t` (1024 CPUs).
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| set.bits[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// one CPU: the highest-numbered one it may use now. Returns that CPU.
pub fn confine_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a fully initialised `cpu_set_t`-sized buffer and the
    // size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `1-3,5` style rendering of a CPU list.
pub fn cpu_list(cpus: &[usize]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < cpus.len() {
        let mut j = i;
        while j + 1 < cpus.len() && cpus[j + 1] == cpus[j] + 1 {
            j += 1;
        }
        parts.push(if i == j {
            cpus[i].to_string()
        } else {
            format!("{}-{}", cpus[i], cpus[j])
        });
        i = j + 1;
    }
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_collapse_runs() {
        assert_eq!(cpu_list(&[0, 1, 2, 5, 7, 8]), "0-2,5,7-8");
        assert_eq!(cpu_list(&[]), "");
    }

    #[test]
    fn this_process_has_a_peak_rss_and_a_cpu() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!allowed_cpus().is_empty());
    }
}
