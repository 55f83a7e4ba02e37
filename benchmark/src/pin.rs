//! Hold the machine still under the process: one CPU, and freed memory
//! kept mapped. The only foreign calls in the package.
//!
//! **One CPU.**
//! Measured on the box the benchmark was defined on (a two-vCPU
//! virtual machine): a `serve_mlp` request is a chain of thread
//! hand-offs, and when the threads sit on different virtual CPUs each
//! hand-off wakes a halted vCPU through the host. The same binary
//! answered in 22 µs and, minutes later, in 110 µs, for minutes at a
//! time, while the CPU-bound calibration kernel read the same — a regime
//! no calibration of CPU speed can see. With every thread on one CPU a
//! hand-off is a context switch. Three runs each, interleaved, p50 per
//! request: unpinned 74 / 90 / 104 µs; server on one CPU and clients on
//! the other 92 / 94 / 95 µs, of which the 42 µs below is the program and
//! the rest the host waking vCPUs; all on one CPU 42.1 / 42.3 / 42.5 µs.
//! So everything runs on one CPU: what two vCPUs add is the host's
//! wake-up time, not the program's. The price is that `serve_mlp` never
//! has two threads contending for a lock at the same instant (its README
//! section says what it does measure). The single-threaded workloads lose
//! nothing, and none of them can migrate between vCPUs of different speed
//! in the middle of a block.
//!
//! **Freed memory kept mapped.** `train_loop` allocates and frees a
//! 200 KB tensor in every SGD step. Whether glibc's allocator hands such a
//! block back to the kernel when it is freed (unmapping it, or trimming
//! the top of the heap) depends on where the block happens to lie in the
//! heap, which differs from process to process; when it does, every step
//! takes its pages again through some fifty page faults, which on a
//! virtual machine the host serves. The same binary ran one operation in
//! 5.9 ms in some processes and 7.3 ms in others (ten runs: 6 / 3 / 1 near
//! 5.9 / 7.1 / 6.2), constant within a process, with the calibration
//! kernel reading the same. Told to keep freed memory, it runs in
//! 5.83–5.86 ms in every process. Allocation work is still counted
//! exactly (`allocs_per_op`, `peak_tensor_bytes`,
//! `tensor.alloc_bytes_per_op`); what is no longer timed is the kernel's
//! and the host's price for a page, which is not the program's.

/// The affinity mask of up to 1024 CPUs, as `sched_setaffinity(2)` takes it.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn set(mask: &CpuSet) -> bool {
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes through the
    // pointer, which is exactly the live array it points at; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// The affinity the process started with; restores it on request.
pub struct Pinned {
    /// The CPU the process is pinned to.
    pub cpu: usize,
    original: CpuSet,
}

/// Pin the calling thread — and every thread it spawns from now on — to
/// the CPU it is running on. `None` when the platform has no such call
/// or the call fails; the benchmark then runs unpinned.
pub fn pin_to_current_cpu() -> Option<Pinned> {
    #[cfg(target_os = "linux")]
    {
        let mut original: CpuSet = [0; 16];
        // SAFETY: no arguments, no memory touched.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
        // into the live array the pointer points at.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), original.as_mut_ptr()) };
        let mut one: CpuSet = [0; 16];
        *one.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        (got >= 0 && set(&one)).then_some(Pinned { cpu, original })
    }
    #[cfg(not(target_os = "linux"))]
    None
}

impl Pinned {
    /// Give the calling thread (and threads spawned after this) its
    /// original CPUs back — for the one probe that measures two threads
    /// against one.
    pub fn release(&self) -> bool {
        #[cfg(target_os = "linux")]
        return set(&self.original);
        #[cfg(not(target_os = "linux"))]
        false
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Tell glibc's allocator to keep freed memory mapped: serve every
/// request below 32 MiB (the largest threshold it accepts) from the heap
/// instead of a mapping of its own, and never trim the heap's top.
/// Returns whether the allocator took both settings; elsewhere, and then,
/// the benchmark runs with the platform's defaults.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own settings; it is called before the process
        // starts a second thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}
