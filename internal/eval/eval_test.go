package eval

import (
	"strings"
	"testing"

	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/tokens"
	"pfuzzer/internal/trace"
)

func tinyBudget() Budget {
	return Budget{PFuzzerExecs: 1500, AFLExecs: 6000, KLEEExecs: 1500, Runs: 1, Seed: 1}
}

func TestRunProducesConsistentResult(t *testing.T) {
	e, _ := registry.Get("cjson")
	for _, tool := range Tools {
		r := Run(e, tool, tinyBudget())
		if r.Subject != "cjson" || r.Tool != tool {
			t.Fatalf("identity wrong: %+v", r)
		}
		if r.Blocks <= 0 {
			t.Fatalf("%s: no blocks", tool)
		}
		if r.CoveragePct < 0 || r.CoveragePct > 100 {
			t.Errorf("%s: coverage %v out of range", tool, r.CoveragePct)
		}
		for _, in := range r.Valids {
			rec := subject.Execute(e.New(), in, trace.Options{})
			if !rec.Accepted() {
				t.Errorf("%s: recorded valid input %q rejected", tool, in)
			}
		}
	}
}

func TestBestOfRunsNotWorseThanSingle(t *testing.T) {
	e, _ := registry.Get("expr")
	b := tinyBudget()
	single := Run(e, PFuzzer, b)
	b.Runs = 3
	best := Run(e, PFuzzer, b)
	if best.CoveragePct < single.CoveragePct {
		t.Errorf("best-of-3 coverage %v < single-run coverage %v", best.CoveragePct, single.CoveragePct)
	}
}

func TestSummarizePoolsCounts(t *testing.T) {
	entries := []registry.Entry{}
	for _, name := range []string{"expr", "paren"} {
		e, _ := registry.Get(name)
		entries = append(entries, e)
	}
	results := Matrix(entries, tinyBudget())
	sums := Summarize(results)
	if len(sums) != len(Tools) {
		t.Fatalf("summaries = %d, want %d", len(sums), len(Tools))
	}
	wantShort := 0
	for _, e := range entries {
		_, st, _, _ := tokens.Cover(e.Inventory, nil).Split(3)
		wantShort += st
	}
	for _, s := range sums {
		if s.ShortTotal != wantShort {
			t.Errorf("%s: short total %d, want %d", s.Tool, s.ShortTotal, wantShort)
		}
		if s.ShortPct() < 0 || s.ShortPct() > 100 {
			t.Errorf("%s: short pct %v out of range", s.Tool, s.ShortPct())
		}
	}
}

// TestMineColumnTokenCoverageSuperset pins the pFuzzer+Mine column's
// contract on every paper subject: the hybrid's exploration phase
// reproduces the pFuzzer campaign exactly (same seed, same budget,
// deterministic engine), so its valid
// corpus extends pFuzzer's and its token coverage is a superset —
// never below the pFuzzer column.
func TestMineColumnTokenCoverageSuperset(t *testing.T) {
	b := Budget{PFuzzerExecs: 4000, Runs: 1, Seed: 1}
	for _, e := range registry.Paper() {
		p := Run(e, PFuzzer, b)
		m := Run(e, PFuzzerMine, b)
		if len(m.Valids) < len(p.Valids) {
			t.Fatalf("%s: pFuzzer+Mine emitted %d valids, pFuzzer %d", e.Name, len(m.Valids), len(p.Valids))
		}
		for i := range p.Valids {
			if string(m.Valids[i]) != string(p.Valids[i]) {
				t.Errorf("%s: valid[%d] = %q, want pFuzzer's %q (exploration must be prefix-identical)",
					e.Name, i, m.Valids[i], p.Valids[i])
				break
			}
		}
		for tok := range p.TokenCov.Found {
			if !m.TokenCov.Found[tok] {
				t.Errorf("%s: token %q covered by pFuzzer but not pFuzzer+Mine", e.Name, tok)
			}
		}
		if m.TokenCov.FoundCount() < p.TokenCov.FoundCount() {
			t.Errorf("%s: pFuzzer+Mine token coverage %d below pFuzzer's %d",
				e.Name, m.TokenCov.FoundCount(), p.TokenCov.FoundCount())
		}
	}
}

// TestBetterRanking is the table-driven contract of the best-of-N
// fold: coverage wins outright, token coverage breaks coverage ties,
// and a full tie keeps the incumbent — which is how the first
// repetition survives equal reruns.
func TestBetterRanking(t *testing.T) {
	cov := func(pct float64, toks int) SubjectResult {
		found := map[string]bool{}
		names := []string{"a", "b", "c"}
		for i := 0; i < toks; i++ {
			found[names[i]] = true
		}
		return SubjectResult{
			CoveragePct: pct,
			TokenCov:    tokens.Coverage{Found: found},
		}
	}
	cases := []struct {
		name string
		a, b SubjectResult
		want bool
	}{
		{"coverage win", cov(50, 0), cov(40, 3), true},
		{"coverage loss", cov(40, 3), cov(50, 0), false},
		{"token tie-break win", cov(50, 2), cov(50, 1), true},
		{"token tie-break loss", cov(50, 1), cov(50, 2), false},
		{"full tie keeps incumbent", cov(50, 2), cov(50, 2), false},
	}
	for _, tc := range cases {
		if got := better(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: better = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The fold itself: on full ties foldGroup keeps the earliest
	// repetition.
	a, b2 := cov(50, 2), cov(50, 2)
	a.Execs, b2.Execs = 111, 222 // distinguish the incumbents
	c0 := &cell{collect: func() SubjectResult { return a }}
	c1 := &cell{collect: func() SubjectResult { return b2 }}
	if best, _ := foldGroup([]*cell{c0, c1}); best.Execs != 111 {
		t.Errorf("full tie kept repetition with Execs=%d, want the first (111)", best.Execs)
	}
}

// TestRepetitionSeedsVaryOutcomes pins that the repetition seeding
// Seed + r*7919 actually produces different campaigns — the best-of-N
// fold is meaningless if every repetition replays the same run.
func TestRepetitionSeedsVaryOutcomes(t *testing.T) {
	e, _ := registry.Get("cjson")
	b := tinyBudget()
	results := make([]SubjectResult, 3)
	for r := range results {
		cells := []*cell{newCell(e, PFuzzer, b, r)}
		runCells(cells, b, nil)
		results[r] = cells[0].collect()
	}
	// Repetition r must run under seed Seed + r*7919: rebuild r=1
	// directly with that seed and compare corpora.
	direct := core.New(e.New(), core.Config{Seed: b.Seed + 7919, MaxExecs: b.PFuzzerExecs}).Run()
	if len(direct.Valids) != len(results[1].Valids) {
		t.Fatalf("rep 1 emitted %d valids, direct seed+7919 run %d", len(results[1].Valids), len(direct.Valids))
	}
	for i := range direct.Valids {
		if string(direct.Valids[i].Input) != string(results[1].Valids[i]) {
			t.Fatalf("rep 1 corpus diverges from the seed+7919 run at %d", i)
		}
	}
	varied := false
	for r := 1; r < len(results); r++ {
		if len(results[r].Valids) != len(results[0].Valids) {
			varied = true
			break
		}
		for i := range results[0].Valids {
			if string(results[r].Valids[i]) != string(results[0].Valids[i]) {
				varied = true
				break
			}
		}
	}
	if !varied {
		t.Error("all repetitions produced identical corpora; repetition seeds do not vary outcomes")
	}
}

// TestMatrixFleetMatchesSerial is the orchestration acceptance test:
// the fleet-parallel matrix must reproduce the serial matrix exactly
// — same execs, same corpora, same coverage — for every subject,
// tool and repetition, because serial pFuzzer campaigns are
// slice-invariant and the baselines run as single steps.
func TestMatrixFleetMatchesSerial(t *testing.T) {
	entries := []registry.Entry{}
	for _, name := range []string{"expr", "cjson"} {
		e, _ := registry.Get(name)
		entries = append(entries, e)
	}
	b := tinyBudget()
	b.Runs = 2
	serial := Matrix(entries, b)
	b.Fleet = 4
	b.FleetSlice = 223 // odd slice: exercise mid-campaign pausing
	fleet := Matrix(entries, b)
	if len(serial) != len(fleet) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(fleet))
	}
	for i := range serial {
		s, f := serial[i], fleet[i]
		if s.Subject != f.Subject || s.Tool != f.Tool {
			t.Fatalf("cell %d identity mismatch: %s/%s vs %s/%s", i, s.Subject, s.Tool, f.Subject, f.Tool)
		}
		if s.Execs != f.Execs || len(s.Valids) != len(f.Valids) ||
			s.CoveragePct != f.CoveragePct || s.TokenCov.FoundCount() != f.TokenCov.FoundCount() {
			t.Errorf("%s/%s: serial (execs=%d valids=%d cov=%.2f tok=%d) != fleet (execs=%d valids=%d cov=%.2f tok=%d)",
				s.Subject, s.Tool, s.Execs, len(s.Valids), s.CoveragePct, s.TokenCov.FoundCount(),
				f.Execs, len(f.Valids), f.CoveragePct, f.TokenCov.FoundCount())
		}
		for j := range s.Valids {
			if string(s.Valids[j]) != string(f.Valids[j]) {
				t.Errorf("%s/%s: valid[%d] differs between serial and fleet", s.Subject, s.Tool, j)
				break
			}
		}
	}
}

func TestReportsRender(t *testing.T) {
	e, _ := registry.Get("expr")
	results := Matrix([]registry.Entry{e}, tinyBudget())
	for name, out := range map[string]string{
		"fig2":    Figure2(results),
		"fig3":    Figure3(results),
		"summary": SummaryReport(results),
		"execs":   ExecsReport(results),
		"table1":  Table1(registry.Paper()),
	} {
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("%s report is empty", name)
		}
	}
	csv := CSV(results)
	if len(csv) != len(results)+1 {
		t.Errorf("CSV rows = %d, want %d", len(csv), len(results)+1)
	}
}

// TestGrammarZooSubjectsProduceValids: the four grammar-zoo subjects
// run through the same matrix machinery as the paper's five, and the
// pFuzzer campaign finds valid inputs on each of them at a small
// budget — the guarantee behind the 11-subject matrix row of
// EXPERIMENTS.md §8.
func TestGrammarZooSubjectsProduceValids(t *testing.T) {
	b := Budget{PFuzzerExecs: 20000, Runs: 1, Seed: 1}
	for _, name := range []string{"urlp", "sexpr", "httpreq", "dotg"} {
		e, ok := registry.Get(name)
		if !ok {
			t.Fatalf("subject %q not registered", name)
		}
		r := Run(e, PFuzzer, b)
		if len(r.Valids) == 0 {
			t.Errorf("%s: pFuzzer found no valid inputs in %d execs", name, b.PFuzzerExecs)
		}
		if r.TokenCov.FoundCount() == 0 {
			t.Errorf("%s: no inventory tokens covered", name)
		}
	}
}
