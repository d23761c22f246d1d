// Package pfuzzer is a Go reproduction of "Parser-Directed Fuzzing"
// (Mathis, Gopinath, Mera, Kampmann, Höschele, Zeller — PLDI 2019).
//
// The library synthesizes syntactically valid inputs for a program
// given only its instrumented parser: it tracks the comparisons the
// parser makes against each input character (through dynamic taint),
// satisfies the comparisons that led to rejection, and appends
// characters whenever the parser reads past the end of the input.
//
// A campaign runs on one serial engine, deterministic under a fixed
// seed and the paper's Algorithm 1 verbatim. Several cores are used by
// running several campaigns at once (internal/campaign's fleet, the
// pfuzzerd daemon), never by splitting one.
//
// Layout:
//
//	internal/core     the fuzzing algorithm (paper Algorithm 1)
//	internal/taint    dynamic taint tracking for input characters
//	internal/trace    the instrumentation runtime parsers run against
//	internal/pqueue   the search's priority queue
//	internal/subjects the five evaluation subjects (ini, csv, cJSON,
//	                  tinyC, mjs) plus the §2/§3 demo parsers
//	internal/afl      the AFL-style coverage-guided baseline
//	internal/klee     the KLEE-style symbolic-execution baseline
//	internal/eval     the evaluation harness (Figures 2-3, Tables 1-4)
//	cmd/...           pfuzzer, bafl, bklee, evaluate
//	examples/...      runnable walkthroughs of the public API
//
// The benchmarks in bench_test.go regenerate every table and figure
// of the paper's evaluation; see DESIGN.md for the experiment index
// and EXPERIMENTS.md for measured-vs-paper results.
package pfuzzer
