package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pfuzzer/internal/subject"
	"pfuzzer/internal/subjects/cjson"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/subjects/tinyc"
)

// resultsEqual compares two campaigns' full emission records:
// inputs, per-valid new-block counts and execution indices, total
// executions and coverage.
func resultsEqual(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.Execs != want.Execs {
		t.Errorf("%s: execs = %d, want %d", label, got.Execs, want.Execs)
	}
	if len(got.Valids) != len(want.Valids) {
		t.Fatalf("%s: %d valids, want %d", label, len(got.Valids), len(want.Valids))
	}
	for i := range want.Valids {
		g, w := got.Valids[i], want.Valids[i]
		if string(g.Input) != string(w.Input) || g.Exec != w.Exec || g.NewBlocks != w.NewBlocks {
			t.Errorf("%s: valid[%d] = (%q, exec %d, new %d), want (%q, exec %d, new %d)",
				label, i, g.Input, g.Exec, g.NewBlocks, w.Input, w.Exec, w.NewBlocks)
		}
	}
	if len(got.Coverage) != len(want.Coverage) {
		t.Errorf("%s: coverage = %d blocks, want %d", label, len(got.Coverage), len(want.Coverage))
	}
}

// stepOut drives a campaign to completion in fixed slices.
func stepOut(t *testing.T, c *Campaign, slice int) *Result {
	t.Helper()
	for i := 0; ; i++ {
		spent, more := c.Step(slice)
		if !more {
			break
		}
		if spent == 0 {
			t.Fatalf("Step made no progress at iteration %d", i)
		}
		if i > 1_000_000 {
			t.Fatal("Step loop did not terminate")
		}
	}
	return c.Result()
}

// TestStepSliceInvariantSerial is the unified-API golden property:
// on the serial engine, a campaign driven in arbitrary Step slices
// is bit-identical to a single blocking Run — the invariant that lets
// the fleet orchestrator multiplex deterministic campaigns without
// perturbing them.
func TestStepSliceInvariantSerial(t *testing.T) {
	cases := []struct {
		name string
		prog func() subject.Program
		cfg  Config
	}{
		{"expr", func() subject.Program { return expr.New() }, Config{Seed: 42, MaxExecs: 3000}},
		{"cjson", func() subject.Program { return cjson.New() }, Config{Seed: 42, MaxExecs: 3000}},
		{"tinyc-hybrid", func() subject.Program { return tinyc.New() },
			Config{Seed: 7, MaxExecs: 12000, MinePhase: true, MineLexer: tinycLexer()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := New(tc.prog(), tc.cfg).Run()
			for _, slice := range []int{137, 1000} {
				got := stepOut(t, NewCampaign(tc.prog(), tc.cfg), slice)
				resultsEqual(t, got, want, "slice="+string(rune('0'+slice/137)))
			}
		})
	}
}

// TestSnapshotResumeEquivalence is the persistence acceptance
// property: save at execution N, restore into a fresh campaign, run
// both to the same total budget — the combined valid corpus must be
// identical to the uninterrupted run's, on the plain serial engine
// and on the hybrid driver.
func TestSnapshotResumeEquivalence(t *testing.T) {
	cases := []struct {
		name string
		prog func() subject.Program
		cfg  Config
		cut  int
	}{
		{"expr", func() subject.Program { return expr.New() }, Config{Seed: 42, MaxExecs: 3000}, 1100},
		{"cjson", func() subject.Program { return cjson.New() }, Config{Seed: 1, MaxExecs: 4000}, 2500},
		{"tinyc-hybrid", func() subject.Program { return tinyc.New() },
			Config{Seed: 7, MaxExecs: 12000, MinePhase: true, MineLexer: tinycLexer()}, 7000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := New(tc.prog(), tc.cfg).Run()

			first := NewCampaign(tc.prog(), tc.cfg)
			for first.Result().Execs < tc.cut {
				if _, more := first.Step(500); !more {
					t.Fatalf("campaign finished before the cut at %d execs", first.Result().Execs)
				}
			}
			blob, err := first.Snapshot().Marshal()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			snap, err := UnmarshalSnapshot(blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			resumed, err := Restore(tc.prog(), Config{MineLexer: tc.cfg.MineLexer}, snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			got := stepOut(t, resumed, 700)
			resultsEqual(t, got, want, "resumed")
		})
	}
}

// retiredKeys are snapshot keys that builds with the speculative
// engine wrote and this build no longer reads.
var retiredKeys = map[string]any{"workers": 4, "batch_size": 8, "spec_depth": 16, "shards": 2, "generation": 3, "phases": 1}

// TestRestoreIgnoresRetiredKeys is the cross-version property: a
// mid-run snapshot carrying the keys an older build wrote — in the
// config and snapshot objects, and "shard":-1 on every candidate —
// restores and runs out to the uninterrupted run's fingerprint.
func TestRestoreIgnoresRetiredKeys(t *testing.T) {
	cfg := Config{Seed: 1, MaxExecs: 4000}
	want := New(cjson.New(), cfg).Run()

	first := NewCampaign(cjson.New(), cfg)
	first.Step(2500)
	blob, err := first.Snapshot().Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber() // keep uint64 hashes exact through the rewrite
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, obj := range []map[string]any{doc, doc["config"].(map[string]any)} {
		for k, v := range retiredKeys {
			obj[k] = v
		}
	}
	queue := doc["queue"].([]any)
	if len(queue) == 0 {
		t.Fatal("snapshot has an empty queue; the shard key would go untested")
	}
	if cur, ok := doc["s_cur"]; ok {
		queue = append(queue, cur)
	}
	for _, cd := range queue {
		cd.(map[string]any)["shard"] = -1
	}
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	snap, err := UnmarshalSnapshot(old)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	resumed, err := Restore(cjson.New(), Config{}, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := stepOut(t, resumed, 700)
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("restored fingerprint %#x, uninterrupted %#x", got.Fingerprint(), want.Fingerprint())
	}
	resultsEqual(t, got, want, "restored")
}

// TestRestoreRejectsBadSnapshot pins the version guard.
func TestRestoreRejectsBadSnapshot(t *testing.T) {
	if _, err := Restore(expr.New(), Config{}, nil); err == nil {
		t.Error("Restore(nil) did not fail")
	}
	c := NewCampaign(expr.New(), Config{Seed: 1, MaxExecs: 100})
	c.Step(50)
	s := c.Snapshot()
	s.Version = 99
	if _, err := Restore(expr.New(), Config{}, s); err == nil {
		t.Error("Restore with a wrong version did not fail")
	}
}

// TestRestoreExtendsBudget: resuming with a larger MaxExecs keeps
// fuzzing past the original budget — including a finished hybrid
// campaign, whose terminal driver stage must reopen.
func TestRestoreExtendsBudget(t *testing.T) {
	cases := []struct {
		name string
		prog func() subject.Program
		cfg  Config
	}{
		{"plain", func() subject.Program { return expr.New() }, Config{Seed: 5, MaxExecs: 1000}},
		{"hybrid", func() subject.Program { return tinyc.New() },
			Config{Seed: 5, MaxExecs: 2000, MinePhase: true, MineLexer: tinycLexer()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCampaign(tc.prog(), tc.cfg)
			stepOut(t, c, 1000)
			snap := c.Snapshot()
			extended := tc.cfg.MaxExecs * 2
			resumed, err := Restore(tc.prog(), Config{MaxExecs: extended, MineLexer: tc.cfg.MineLexer}, snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			res := stepOut(t, resumed, 1000)
			if res.Execs < extended {
				t.Errorf("extended campaign stopped at %d execs, want >= %d", res.Execs, extended)
			}
		})
	}
}

// TestRestoreShrinksBudget: any positive cfg.MaxExecs overrides the
// saved budget, smaller included — resuming with a tighter budget
// stops earlier instead of silently running out the saved one.
func TestRestoreShrinksBudget(t *testing.T) {
	c := NewCampaign(expr.New(), Config{Seed: 5, MaxExecs: 10000})
	c.Step(1000)
	snap := c.Snapshot()
	resumed, err := Restore(expr.New(), Config{MaxExecs: 2000}, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	res := stepOut(t, resumed, 1000)
	if res.Execs < 2000 || res.Execs > 2002 {
		t.Errorf("shrunk campaign stopped at %d execs, want ~2000", res.Execs)
	}
	// Shrinking below the snapshot's exec count finishes immediately.
	already, err := Restore(expr.New(), Config{MaxExecs: 500}, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if spent, more := already.Step(1000); spent != 0 || more {
		t.Errorf("over-budget resume stepped spent=%d more=%v, want 0/false", spent, more)
	}
}

// TestDeadlineCampaignRuns is the regression test for the zero-time
// deadline bug: a campaign with a generous Deadline must actually
// run, not read time.Since(zero) as already expired before the first
// step.
func TestDeadlineCampaignRuns(t *testing.T) {
	res := New(expr.New(), Config{Seed: 1, MaxExecs: 2000, Deadline: time.Hour}).Run()
	if res.Execs < 2000 {
		t.Errorf("campaign with a 1h deadline ran only %d of 2000 execs", res.Execs)
	}
	if len(res.Valids) == 0 {
		t.Error("campaign with a 1h deadline emitted nothing")
	}
}
