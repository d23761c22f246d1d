// Benchmarks regenerating the paper's tables and figures (see the
// experiment index in DESIGN.md). Campaign benchmarks use reduced
// execution budgets so `go test -bench=.` completes in minutes; run
// cmd/evaluate for paper-scale campaigns. Custom metrics carry the
// reproduced quantities: coverage_pct (Figure 2), tokens_found /
// short_pct / long_pct (Figure 3 and the §5.3 aggregates).
package pfuzzer_test

import (
	"math/rand"
	"testing"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/dyck"
	"pfuzzer/internal/eval"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/tokens"
	"pfuzzer/internal/trace"
)

// benchInputs is one representative valid input per subject, used to
// measure parse+execute throughput (Table 1's subjects as workloads).
var benchInputs = map[string]string{
	"ini":   "[section]\nkey = value\n; comment\n",
	"csv":   "a,b,\"c,d\"\ne,f,g\n",
	"cjson": `{"k":[1,2.5,true,false,null,"s"]}`,
	"tinyc": "{a=0;while(a<10)a=a+1;if(a<5){b=1;}else{b=2;}}",
	"mjs":   "var n = 0; while (n < 10) { n = n + 1; } if (n === 10) { n = Math.floor(n / 3); }",
}

// BenchmarkTable1_Subjects measures each subject's instrumented
// parse(+execute) throughput on a representative valid input.
func BenchmarkTable1_Subjects(b *testing.B) {
	for _, e := range registry.Paper() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			prog := e.New()
			input := []byte(benchInputs[e.Name])
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				rec := subject.Execute(prog, input, trace.Full())
				if !rec.Accepted() {
					b.Fatalf("benchmark input rejected by %s", e.Name)
				}
			}
		})
	}
}

// benchBudget is the reduced per-iteration campaign budget.
var benchBudget = eval.Budget{
	PFuzzerExecs: 4000,
	AFLExecs:     40000,
	KLEEExecs:    4000,
	Runs:         1,
	Seed:         1,
}

// BenchmarkFigure2_Coverage reproduces Figure 2: branch coverage of
// the valid inputs per subject and tool, reported as coverage_pct.
func BenchmarkFigure2_Coverage(b *testing.B) {
	for _, e := range registry.Paper() {
		for _, tool := range eval.Tools {
			e, tool := e, tool
			b.Run(e.Name+"/"+string(tool), func(b *testing.B) {
				var last eval.SubjectResult
				for i := 0; i < b.N; i++ {
					last = eval.Run(e, tool, benchBudget)
				}
				b.ReportMetric(last.CoveragePct, "coverage_pct")
				b.ReportMetric(float64(len(last.Valids)), "valids")
			})
		}
	}
}

// BenchmarkFigure3_TokenCoverage reproduces Figure 3: inventory
// tokens found in the valid inputs, split at token length 3.
func BenchmarkFigure3_TokenCoverage(b *testing.B) {
	for _, e := range registry.Paper() {
		for _, tool := range eval.Tools {
			e, tool := e, tool
			b.Run(e.Name+"/"+string(tool), func(b *testing.B) {
				var last eval.SubjectResult
				for i := 0; i < b.N; i++ {
					last = eval.Run(e, tool, benchBudget)
				}
				sf, st, lf, lt := last.TokenCov.Split(3)
				b.ReportMetric(float64(last.TokenCov.FoundCount()), "tokens_found")
				b.ReportMetric(tokens.Percent(sf, st), "short_pct")
				b.ReportMetric(tokens.Percent(lf, lt), "long_pct")
			})
		}
	}
}

// tokenTableBench measures token extraction over a subject's corpus
// and asserts the inventory matches the paper's per-length counts.
func tokenTableBench(b *testing.B, name string, counts map[int]int, corpus []string) {
	e, ok := registry.Get(name)
	if !ok {
		b.Fatalf("unknown subject %s", name)
	}
	for n, want := range counts {
		if got := e.Inventory.CountLen(n); got != want {
			b.Fatalf("%s inventory length %d: %d tokens, paper says %d", name, n, got, want)
		}
	}
	for i := 0; i < b.N; i++ {
		found := map[string]bool{}
		for _, in := range corpus {
			for tok := range e.Tokenize([]byte(in)) {
				found[tok] = true
			}
		}
		cov := tokens.Cover(e.Inventory, found)
		if cov.FoundCount() != e.Inventory.Count() {
			b.Fatalf("%s corpus covers %d/%d tokens", name, cov.FoundCount(), e.Inventory.Count())
		}
	}
}

// BenchmarkTable2_JSONTokens checks and measures the Table 2
// inventory (8/1/2/1 tokens at lengths 1/2/4/5).
func BenchmarkTable2_JSONTokens(b *testing.B) {
	tokenTableBench(b, "cjson",
		map[int]int{1: 8, 2: 1, 4: 2, 5: 1},
		[]string{`{"a":[-1,2],"b":true}`, `false`, `null`, `"s"`, `3`})
}

// BenchmarkTable3_TinyCTokens checks and measures the Table 3
// inventory (11/2/1/1 tokens at lengths 1/2/4/5).
func BenchmarkTable3_TinyCTokens(b *testing.B) {
	tokenTableBench(b, "tinyc",
		map[int]int{1: 11, 2: 2, 4: 1, 5: 1},
		[]string{"{a=1;}", "if(a<2)b=a+3;else b=a-1;", "do;while(0);", "(9);"})
}

// BenchmarkTable4_MJSTokens checks and measures the Table 4 inventory
// (27/24/13/10/9/7/3/3/2/1 tokens at lengths 1..10).
func BenchmarkTable4_MJSTokens(b *testing.B) {
	tokenTableBench(b, "mjs",
		map[int]int{1: 27, 2: 24, 3: 13, 4: 10, 5: 9, 6: 7, 7: 3, 8: 3, 9: 2, 10: 1},
		[]string{
			"x = {a: 1}; y = x.a + 2 - 3 * 4 / 5 % 6; z = [7]; y ? !z : ~0; 'q';",
			"a < b; a > c; a = 1; a & 2; a | 3; a ^ 4; q.r; (f)(g, h); j[0];",
			"a == b; a != c; a <= d; a >= e; a += 1; a -= 2; a *= 3; a /= 4;",
			"a %= 5; a &= 6; a |= 7; a ^= 8; a << 1; a >> 2; a && b; a || c;",
			"a++; a--; if (x) ; in2 = 'y' in q; do ; while (0); // line\n/* blk */;",
			"a === b; a !== c; a <<= 1; a >>= 2; a >>> 3; a >>>= 4;",
			"for (;;) break; let l = NaN; new F(); try { throw 1; } catch (e) {} var v;",
			"Math.min(1, 2); Math.max(3, 4); Math.floor(5.5); JSON.parse('1');",
			"true; null; void 0; with (o) ; else2 = 0; if (1) ; else ; this; ",
			"switch (x) { case 1: break; default: continue; }",
			"false; while (0) ; const c = 1; print('p'); JSON.stringify(2);",
			"return; delete o.p; typeof t; Object.keys({}); String(1); Number('2');",
			"function f() { debugger; } 'str'.indexOf('t'); undefined; x instanceof F;",
			"finally2 = 0; try {} finally {}",
		})
}

// BenchmarkSummary_TokenAggregates reproduces the §5.3 headline: the
// pooled short/long token coverage per tool across all subjects.
func BenchmarkSummary_TokenAggregates(b *testing.B) {
	entries := registry.Paper()
	var summaries []eval.Summary
	for i := 0; i < b.N; i++ {
		summaries = eval.Summarize(eval.Matrix(entries, benchBudget))
	}
	for _, s := range summaries {
		b.ReportMetric(s.ShortPct(), string(s.Tool)+"_short_pct")
		b.ReportMetric(s.LongPct(), string(s.Tool)+"_long_pct")
	}
}

// BenchmarkDyck_ClosingProbability reproduces the §3 footnote: the
// simulated probability of randomly closing a 100-step bracket walk
// against the closed form 1/(n+1) ≈ 1%.
func BenchmarkDyck_ClosingProbability(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var p float64
	for i := 0; i < b.N; i++ {
		p = dyck.SimulateClosing(100, 20000, rng)
	}
	b.ReportMetric(p*100, "simulated_pct")
	b.ReportMetric(dyck.ClosingProbability(100)*100, "formula_pct")
}

// ablations pairs each DESIGN.md ablation with its configuration.
var ablations = []struct {
	name string
	cfg  core.Config
}{
	{"Full", core.Config{}},
	{"NoLengthTerm", core.Config{NoLengthTerm: true}},
	{"NoReplacementBonus", core.Config{NoReplacementBonus: true}},
	{"NoStackTerm", core.Config{NoStackTerm: true}},
	{"NoParentsTerm", core.Config{NoParentsTerm: true}},
	{"NoPathNovelty", core.Config{NoPathNovelty: true}},
	{"CoverageOnlyDFS", core.Config{CoverageOnly: true}},
	{"BFS", core.Config{BFS: true}},
}

// BenchmarkAblation_Heuristic compares heuristic variants (§3
// design choices) on tinyC at a fixed budget: valids and coverage
// show what each term buys.
func BenchmarkAblation_Heuristic(b *testing.B) {
	e, _ := registry.Get("tinyc")
	for _, a := range ablations {
		a := a
		b.Run(a.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				cfg := a.cfg
				cfg.Seed = 1
				cfg.MaxExecs = 8000
				res = core.New(e.New(), cfg).Run()
			}
			prog := e.New()
			b.ReportMetric(float64(len(res.Valids)), "valids")
			b.ReportMetric(tokens.Percent(len(res.Coverage), prog.Blocks()), "coverage_pct")
		})
	}
}

// BenchmarkAblation_Paren runs the same ablations on the bracket
// language, where closing behaviour (§3.2) dominates.
func BenchmarkAblation_Paren(b *testing.B) {
	e, _ := registry.Get("paren")
	for _, a := range ablations {
		a := a
		b.Run(a.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				cfg := a.cfg
				cfg.Seed = 1
				cfg.MaxExecs = 8000
				res = core.New(e.New(), cfg).Run()
			}
			b.ReportMetric(float64(len(res.Valids)), "valids")
		})
	}
}

// BenchmarkHybridCampaign tracks the §7.4 grammar-feedback campaign
// (core.Config.MinePhase) against the pure parser-directed campaign
// on tinyc: same seed and execution budget, reporting valid-input
// counts and the longest emitted valid input. The hybrid's headline
// quantity is max_valid_len — deep, recursive inputs the pure
// campaign's last-character substitution does not reach.
func BenchmarkHybridCampaign(b *testing.B) {
	e, ok := registry.Get("tinyc")
	if !ok {
		b.Fatal("tinyc subject not registered")
	}
	const campaignExecs = 20000
	for _, mined := range []bool{false, true} {
		name := "pure"
		if mined {
			name = "hybrid"
		}
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			execs, elapsed := 0, time.Duration(0)
			for i := 0; i < b.N; i++ {
				res = core.New(e.New(), core.Config{
					Seed:      1,
					MaxExecs:  campaignExecs,
					MinePhase: mined,
					MineLexer: e.Lexer,
				}).Run()
				execs += res.Execs
				elapsed += res.Elapsed
			}
			maxLen := 0
			for _, v := range res.Valids {
				if len(v.Input) > maxLen {
					maxLen = len(v.Input)
				}
			}
			b.ReportMetric(float64(execs)/elapsed.Seconds(), "execs/s")
			b.ReportMetric(float64(len(res.Valids)), "valids")
			b.ReportMetric(float64(maxLen), "max_valid_len")
		})
	}
}

// BenchmarkExecsPerValid measures pFuzzer's defining efficiency
// claim: valid inputs per execution (the paper: orders of magnitude
// fewer tests than AFL).
func BenchmarkExecsPerValid(b *testing.B) {
	for _, name := range []string{"expr", "cjson", "tinyc"} {
		e, _ := registry.Get(name)
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.New(e.New(), core.Config{Seed: 1, MaxExecs: 4000}).Run()
			}
			if len(res.Valids) > 0 {
				b.ReportMetric(float64(res.Execs)/float64(len(res.Valids)), "execs_per_valid")
			}
		})
	}
}
