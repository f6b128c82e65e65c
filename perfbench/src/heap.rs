//! A counting wrapper around the system allocator, for the high-water mark
//! of live heap bytes: what the program asked for at its peak. VmHWM also
//! counts what glibc's per-thread arenas hold on to, which makes it vary by
//! about ±15% between identical runs of a threaded program.
//!
//! Each thread counts into one of a few cache-line-sized slots, so the
//! counting adds no shared-line traffic to the program's allocations; a
//! sampler thread sums the slots every millisecond and keeps the maximum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

pub struct Counting;

const SLOTS: usize = 16;

#[repr(align(128))]
struct Slot(AtomicIsize);

// Statistics only: no other data is published through these counters, so
// Relaxed suffices everywhere.
static LIVE: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

static PEAK: AtomicUsize = AtomicUsize::new(0);

fn sample() {
    PEAK.fetch_max(live(), Relaxed);
}

thread_local! {
    // Const-initialised without a destructor: reading it never allocates.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> &'static AtomicIsize {
    let i = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &LIVE[i].0
}

fn count(delta: isize) {
    slot().fetch_add(delta, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counting touches only the
// counters above and never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `GlobalAlloc::realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Live heap bytes now.
fn live() -> usize {
    LIVE.iter().map(|s| s.0.load(Relaxed)).sum::<isize>().max(0) as usize
}

static STOP: AtomicBool = AtomicBool::new(false);

/// Samples the live heap every millisecond until finished or dropped.
pub struct Sampler(Option<std::thread::JoinHandle<()>>);

impl Sampler {
    pub fn start() -> Self {
        STOP.store(false, Relaxed);
        let thread = std::thread::Builder::new()
            .name("heap-sampler".into())
            .spawn(|| {
                while !STOP.load(Relaxed) {
                    sample();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .expect("spawn heap sampler");
        Sampler(Some(thread))
    }

    fn stop(&mut self) {
        STOP.store(true, Relaxed);
        if let Some(t) = self.0.take() {
            let _ = t.join();
        }
    }

    /// Stop sampling; the most heap live at once, in MiB.
    pub fn finish(mut self) -> f64 {
        self.stop();
        sample();
        PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_covers_a_held_allocation() {
        let sampler = super::Sampler::start();
        let big = vec![1u8; 64 << 20];
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert!(big.iter().all(|&b| b == 1));
        drop(big);
        assert!(sampler.finish() >= 64.0);
    }
}
