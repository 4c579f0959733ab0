//! A counting global allocator for allocation gates.
//!
//! A test binary that declares `mod alloc_counter;` installs it. Every
//! allocator call (alloc, zeroed alloc, realloc) made by a thread bumps
//! that thread's counter, so other tests running in parallel cannot
//! disturb a count taken with [`calls`] before and after the measured
//! code.

#![allow(unsafe_code)] // the counting allocator below forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocator calls (alloc, zeroed alloc, realloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local cell,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread has made so far.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}
