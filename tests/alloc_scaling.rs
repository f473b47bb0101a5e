//! Allocation scaling, counted by a global allocator.
//!
//! Wall-clock bounds (`tests/many_bindings.rs`) catch a quadratic stage
//! only once it costs seconds; allocation counts repeat exactly and show
//! the shape at small sizes. The allocator counts per thread, so tests
//! running in parallel do not mix their counts.

use jsdetect_suite::corpus::RegularJsGenerator;
use jsdetect_suite::features::analyze;
use jsdetect_suite::guard::{Budget, Limits, OutcomeKind};
use jsdetect_suite::normalize::{normalize_program, NormalizeOptions};
use jsdetect_suite::parser::parse;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

/// The system allocator, counting the calling thread's allocations and
/// allocated bytes (reallocations count as one allocation of the new
/// size).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the
// counters are const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations and bytes it made
/// on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - allocs, BYTES.with(Cell::get) - bytes)
}

/// The normalizer rewrites the parsed tree in place: on a script with
/// nothing to rewrite it allocates only its passes' bookkeeping, far less
/// than the tree itself. A copy of the tree would cost about what the
/// parse allocated.
#[test]
fn normalizing_a_script_with_nothing_to_rewrite_does_not_copy_its_tree() {
    let mut gen = RegularJsGenerator::new(0xA110C);
    let mut checked = 0;
    for _ in 0..8 {
        let src = gen.generate();
        let (program, _, parse_bytes) = counted(|| parse(&src).expect("generated code parses"));
        let budget = Budget::new(&Limits::trusted());
        let ((normalized, report), _, normalize_bytes) =
            counted(|| normalize_program(program, &NormalizeOptions::default(), &budget));
        if report.total_rewrites() > 0 {
            continue;
        }
        assert_eq!(report.outcome, OutcomeKind::Ok);
        assert!(normalized.is_some());
        println!(
            "{} bytes of source: parse {parse_bytes} B, normalize {normalize_bytes} B",
            src.len()
        );
        assert!(
            normalize_bytes * 2 < parse_bytes,
            "normalizing allocated {normalize_bytes} B against {parse_bytes} B for the parse"
        );
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} of 8 generated scripts had nothing to rewrite");
}

/// `n` global-array preludes of one string each, every pool read once.
fn preludes(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        writeln!(
            src,
            "var _0xa{i} = ['s{i}']; \
             var _0xb{i} = function (i) {{ return _0xa{i}[parseInt(i, 16)]; }}; \
             f(_0xb{i}('0x0'));"
        )
        .expect("writing to a String cannot fail");
    }
    src
}

/// Array inlining handles every prelude of a run at once, so four times
/// the preludes cost about four times the allocations; a scope analysis
/// per prelude would make them grow with the square.
#[test]
fn analysis_allocations_grow_linearly_with_global_array_preludes() {
    let allocs_for = |n: usize| {
        let src = preludes(n);
        let (r, allocs, _) = counted(|| analyze(&src, &Limits::trusted()));
        assert_eq!(r.outcome, OutcomeKind::Ok, "{:?}", r.error);
        allocs
    };
    let (small, large) = (allocs_for(250), allocs_for(1_000));
    println!("250 preludes: {small} allocations; 1000 preludes: {large}");
    assert!(large <= 5 * small, "{large} allocations for 1000 preludes against {small} for 250");
}
