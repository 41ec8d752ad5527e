//! Golden VM counters and exact budget edges.
//!
//! The VM's counters are the deterministic cost model of the emitted C
//! (one step per `if`, `goto` or `return`; one alloc per pair or
//! closure; one call per `goto`).  This file pins them for every Fig. 8
//! program at its benchmark inputs, together with the block-profile
//! totals of `run_profiled_with`, so a change to the machine's run loop
//! cannot silently change what it charges.  It also checks that the
//! fuel and heap budgets trap at exactly the counted step and
//! allocation, not one earlier or later.

use realistic_pe::{CompileOptions, InterpError, Limits, Pipeline, Trap, Vm, SUITE};

type R = Result<(), Box<dyn std::error::Error>>;

/// `(name, steps, allocs, calls, block entries, true arms, false arms)`
/// at `bench_args`.
const GOLDEN: &[(&str, u64, u64, u64, u64, u64, u64)] = &[
    ("deriv", 173_363, 48_460, 20_467, 20_468, 22_577, 130_318),
    ("tak", 270_337, 95_412, 79_510, 79_511, 79_512, 111_314),
    ("cpstak", 181_040, 47_707, 79_511, 79_512, 51_663, 49_865),
    ("takl", 191_205, 21_263, 57_174, 57_175, 21_200, 112_830),
    ("fibclos", 123_973, 35_421, 53_131, 53_132, 24_477, 46_364),
    ("cps-append", 202_031, 98_647, 98_005, 98_006, 49_169, 54_856),
    ("queens", 401_785, 96_376, 93_518, 93_519, 51_274, 256_992),
];

fn load(source: &str, entry: &str) -> Result<Vm, Box<dyn std::error::Error>> {
    let s0 = Pipeline::new(source)?.compile(entry, &CompileOptions::default())?;
    Ok(Vm::compile(&s0)?)
}

#[test]
fn vm_counters_match_golden_values_at_bench_args() -> R {
    assert_eq!(GOLDEN.len(), SUITE.len());
    for (b, &(name, steps, allocs, calls, entries, taken, fell)) in SUITE.iter().zip(GOLDEN) {
        assert_eq!(b.name, name);
        let vm = load(b.source, b.entry)?;
        let args = b.bench_inputs();
        let (answer, stats) = vm.run(&args, Limits::default())?;
        let (profiled, pstats, profile) =
            vm.run_profiled_with(&args, Limits::default(), &mut pe_trace::NullSink)?;
        assert_eq!(answer, profiled, "{name}");
        assert_eq!(stats, pstats, "{name}: profiling must not perturb the machine");
        let (t, f) = profile.branches.iter().fold((0, 0), |(t, f), &(a, b)| (t + a, f + b));
        assert_eq!((stats.steps, stats.allocs, stats.calls), (steps, allocs, calls), "{name}");
        assert_eq!((profile.total_entries(), t, f), (entries, taken, fell), "{name}");
    }
    Ok(())
}

#[test]
fn fuel_and_heap_budgets_trap_at_the_exact_count() -> R {
    for b in SUITE {
        let vm = load(b.source, b.entry)?;
        let args = b.test_inputs();
        let (answer, stats) = vm.run(&args, Limits::default())?;
        assert_eq!(answer.to_string(), b.test_expect, "{}", b.name);
        let fuel = |n| Limits::builder().with_fuel(n).build();
        assert_eq!(vm.run(&args, fuel(stats.steps))?, (answer.clone(), stats), "{}", b.name);
        assert_eq!(
            vm.run(&args, fuel(stats.steps - 1)),
            Err(InterpError::FuelExhausted),
            "{}",
            b.name
        );
        assert!(stats.allocs > 0, "{}: every suite program allocates", b.name);
        let heap = |n| Limits::builder().with_heap(n).build();
        assert_eq!(vm.run(&args, heap(stats.allocs))?, (answer, stats), "{}", b.name);
        assert_eq!(
            vm.run(&args, heap(stats.allocs - 1)),
            Err(InterpError::Trap(Trap::Heap { limit: stats.allocs - 1 })),
            "{}",
            b.name
        );
    }
    Ok(())
}
