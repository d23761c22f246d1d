package core

import (
	"testing"

	"pfuzzer/internal/subject"
	"pfuzzer/internal/subjects/cjson"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/trace"
)

// Allocation benchmarks for the trajectory hot path. The engine's
// per-exec cost is the campaign's critical path: every allocation it
// performs per execution is time and GC load no other layer recovers.
// Run with -benchmem; the
// steady-state figures are pinned (with slack) by alloc_pin_test.go.

// BenchmarkSinkExecute measures one sink-backed subject execution —
// the trace-collection layer alone, no distillation. Steady state:
// the sink's buffers (comparisons, blocks, block set, byte arena) are
// warm after the first run, so allocations here are per-exec costs the
// arena exists to kill.
func BenchmarkSinkExecute(b *testing.B) {
	prog := expr.New()
	input := []byte("(1+2)*(3-4)#")
	var sink trace.Sink
	subject.ExecuteInto(prog, input, traceOpts(), &sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subject.ExecuteInto(prog, input, traceOpts(), &sink)
	}
}

// BenchmarkFactsDistill measures factsOfInto on a deriving run — the full
// distillation (trimmed blocks, final-index comparisons, stack
// average) the engine performs for every input whose comparisons seed
// children.
func BenchmarkFactsDistill(b *testing.B) {
	prog := cjson.New()
	input := []byte(`{"a":[1,2`)
	var sink trace.Sink
	rec := subject.ExecuteInto(prog, input, traceOpts(), &sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		factsOfInto(new(runFacts), rec, true)
	}
}

// BenchmarkCampaignPerExec measures a whole serial campaign and
// reports allocations normalised per execution — the end-to-end
// trajectory figure the ISSUE 8 acceptance bar (≥ 30% fewer
// steady-state allocs/exec than the PR 7 baseline) is judged on.
func BenchmarkCampaignPerExec(b *testing.B) {
	const execs = 4000
	b.ReportAllocs()
	var ran int
	for i := 0; i < b.N; i++ {
		res := New(expr.New(), Config{Seed: 42, MaxExecs: execs}).Run()
		ran = res.Execs
	}
	// allocs/op ÷ execs/op = allocs per execution; report execs/op so
	// the division is mechanical.
	b.ReportMetric(float64(ran), "execs/op")
}
