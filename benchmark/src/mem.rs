//! The benchmark process's heap, arranged so that no measured frame
//! pays a page fault.
//!
//! On this VM a first touch of a page the host has not backed yet costs
//! about 22 µs, against 1.7 µs for one it has, and the host takes freed
//! pages back within a second. A store that grows by 50 MB/s therefore
//! runs at full speed while the guest still has a few hundred MB of
//! backed free pages — how many is the host's business — and at half
//! speed from then on: a step that came anywhere between a quarter and
//! three quarters of the way through a run of one commit. So before
//! anything is timed the heap is grown to the size the run will need,
//! touched once, and never given back.

extern "C" {
    // glibc's.
    fn mallopt(param: i32, value: i32) -> i32;
    fn mallinfo2() -> MallInfo2;
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

const MIB: usize = 1 << 20;

/// Makes every thread allocate from the one `brk` heap, keeps blocks of
/// up to 32 MiB (glibc's ceiling) on it instead of in mappings of their
/// own, and never trims it; then allocates `mib` MiB, writes to every
/// page and frees them, which leaves them in the heap's top chunk. Call
/// it first thing, on the main thread, before any other is spawned.
///
/// One arena instead of one per thread: only the `brk` heap can be held
/// on to (an empty 64 MiB heap of a thread arena is unmapped whatever
/// the trim threshold says), and it can only be touched in advance from
/// here, while the stores are filled by the server's workers.
pub fn retain_and_prefault(mib: usize) {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two integers and touches only the
    // allocator's own settings.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, (32 * MIB) as i32);
    }
    let start = std::time::Instant::now();
    // Filled with ones: a zeroed block fresh from `brk` would come back
    // from `calloc` untouched.
    let blocks: Vec<Vec<u8>> = (0..mib.div_ceil(16)).map(|_| vec![1u8; 16 * MIB]).collect();
    std::hint::black_box(&blocks);
    drop(blocks);
    eprintln!(
        "heap: {mib} MiB touched in {:.2} s",
        start.elapsed().as_secs_f64()
    );
}

/// MiB the program holds allocated right now: blocks in use on the heap
/// plus blocks mapped on their own. Unlike the resident set it does not
/// count the pages [`retain_and_prefault`] parked.
pub fn live_heap_mib() -> f64 {
    // SAFETY: `mallinfo2` takes nothing and returns its struct by value.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / MIB as f64
}

/// Minor page faults this process has taken so far (`/proc/self/stat`,
/// field 10). A measured phase that adds thousands ran out of touched
/// heap: raise the workload's `heap_mib`.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests allocate beside this one, so only the floor is pinned:
    /// a block held is counted, whichever way glibc got it.
    #[test]
    fn live_heap_counts_a_block_that_is_held() {
        let block = std::hint::black_box(vec![1u8; 48 * MIB]);
        assert!(live_heap_mib() >= 48.0);
        drop(block);
        assert!(minor_faults() > 0);
    }
}
