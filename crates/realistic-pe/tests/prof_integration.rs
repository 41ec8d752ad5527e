//! End-to-end tests for pe-prof cost attribution: every phase that
//! claims attribution balances its books against the span totals, and
//! the deterministic part of the table (labels, phases, work units) is
//! identical across repeated traced compiles.

use pe_prof::Attribution;
use pe_trace::{CollectingSink, Phase};
use realistic_pe::{CompileOptions, Limits, Pipeline, SUITE};

type R = Result<(), Box<dyn std::error::Error>>;

/// One traced compile + hot-label profiled run, returning the sink.
fn trace_profiled(source: &str, entry: &str, inputs: &[realistic_pe::Datum]) -> R2 {
    let mut sink = CollectingSink::new();
    let pipe = Pipeline::new_traced(source, &mut sink)?;
    let (vm, _) = pipe.compile_vm(entry, &CompileOptions::default(), &mut sink)?;
    vm.run_profiled_with(inputs, Limits::default(), &mut sink)?;
    Ok(sink)
}
type R2 = Result<CollectingSink, Box<dyn std::error::Error>>;

#[test]
fn every_benchmark_attributes_all_five_phases() -> R {
    for b in SUITE {
        let sink = trace_profiled(b.source, b.entry, &b.test_inputs())?;
        sink.check_balanced().map_err(|e| format!("{}: {e}", b.name))?;
        let table = Attribution::from_events(sink.events());
        let expect =
            [Phase::Specialize, Phase::Post, Phase::Flow, Phase::Verify, Phase::VmRun];
        assert_eq!(table.phases(), expect, "{}", b.name);
        // Every attributed label is a residual procedure (or the
        // explicit audit row), never empty.
        assert!(
            table.rows().iter().all(|r| !r.label.is_empty()),
            "{}: empty label",
            b.name
        );
    }
    Ok(())
}

#[test]
fn attribution_books_balance_against_span_totals() -> R {
    // The strict 5% gate runs in release mode via `pe-explain --prof`
    // (ci.sh); under the unoptimized test profile with a parallel test
    // harness stealing cores, allow more relative headroom and an
    // absolute floor so this never flakes while still catching a
    // broken accounting scheme (which is off by whole phases, not
    // percents).
    for b in SUITE {
        let sink = trace_profiled(b.source, b.entry, &b.test_inputs())?;
        let table = Attribution::from_events(sink.events());
        table
            .check_sums(sink.events(), 25, 5_000_000)
            .map_err(|e| format!("{}: {e}", b.name))?;
    }
    Ok(())
}

#[test]
fn redacted_attribution_is_deterministic_across_compiles() -> R {
    for b in SUITE {
        let a = trace_profiled(b.source, b.entry, &b.test_inputs())?;
        let b2 = trace_profiled(b.source, b.entry, &b.test_inputs())?;
        let ta = Attribution::from_events(a.events()).redacted();
        let tb = Attribution::from_events(b2.events()).redacted();
        // Same labels, same phases, same work units, same order — wall
        // times are the only nondeterministic column.
        assert_eq!(ta, tb, "{}: attribution tables diverged", b.name);
        assert!(!ta.is_empty(), "{}", b.name);
    }
    Ok(())
}

#[test]
fn vm_profile_ranks_hot_labels_deterministically() -> R {
    let b = realistic_pe::benchmark("tak").expect("tak exists");
    let pipe = Pipeline::new(b.source)?;
    let mut sink = pe_trace::NullSink;
    let (vm, _) = pipe.compile_vm(b.entry, &CompileOptions::default(), &mut sink)?;
    let (v1, s1, p1) = vm.run_profiled_with(&b.test_inputs(), Limits::default(), &mut sink)?;
    let (v2, s2, p2) = vm.run_profiled_with(&b.test_inputs(), Limits::default(), &mut sink)?;
    assert_eq!(v1, v2);
    assert_eq!(s1.steps, s2.steps);
    assert_eq!(p1.entries, p2.entries, "hot-label counts must be exact");
    assert_eq!(p1.hottest(), p2.hottest());
    let (r, _) = vm.run(&b.test_inputs(), Limits::default())?;
    assert_eq!(v1, r, "profiling must not change results");
    Ok(())
}
