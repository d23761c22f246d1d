// Package subject defines the interface between the fuzzers and the
// programs under test. A Program is an instrumented parser (paper
// Table 1 lists the originals) that reads its input through a
// trace.Tracer and reports acceptance through its exit status, exactly
// like the paper's subjects, which were set up to "read from standard
// input and to abort parsing with a non-zero exit code on the first
// error" (§5.1).
package subject

import "pfuzzer/internal/trace"

// Exit statuses shared by all subjects.
const (
	ExitOK     = 0 // input accepted by the parser
	ExitReject = 1 // parse error
)

// Harness-reported exit statuses. Subjects themselves only ever
// return ExitOK or ExitReject; execution harnesses that drive a
// subject they cannot fully observe — the out-of-process shim
// (internal/shim) — report these when an execution's real verdict was
// lost. All are non-zero, so every engine treats them as rejections
// and the campaign continues; harnesses must pair them with
// trace.Tracer.MarkUndecided so the substitute verdict is never
// memoised as a deciding prefix.
const (
	ExitCrash       = 3 // the child process died mid-execution
	ExitHang        = 4 // the execution overran its deadline and was killed
	ExitUnavailable = 5 // no child could be obtained (breaker open or spawn failure)
)

// Program is one instrumented subject.
type Program interface {
	// Name returns the subject's short name (e.g. "cjson").
	Name() string
	// Run parses (and, for tinyC and mjs, executes) the tracer's
	// input, reporting instrumentation events through t. It returns
	// ExitOK if the input was accepted.
	Run(t *trace.Tracer) int
	// Blocks returns the total number of instrumented basic blocks,
	// the denominator for coverage percentages (Figure 2).
	Blocks() int
}

// Execute runs p once on input with the given tracing options and
// returns the sealed record.
func Execute(p Program, input []byte, opts trace.Options) *trace.Record {
	t := trace.New(input, opts)
	exit := p.Run(t)
	return t.Finish(exit)
}

// ExecuteInto runs p once on input, recording into sink's reusable
// buffers instead of allocating fresh ones. The returned record
// aliases the sink and is valid only until the sink's next use; it is
// the hot-path variant the campaign engine runs, one sink per
// campaign.
func ExecuteInto(p Program, input []byte, opts trace.Options, sink *trace.Sink) *trace.Record {
	t := sink.New(input, opts)
	exit := p.Run(t)
	return t.Finish(exit)
}
