package core

import (
	"hash/fnv"
	"testing"

	"pfuzzer/internal/subject"
	"pfuzzer/internal/subjects/cjson"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/subjects/paren"
)

// goldenCampaigns pins the serial engine's exact output: the values
// were captured from the pre-refactor monolithic Fuzzer.Run at commit
// fbdac0b with Seed=42, MaxExecs=3000. Every refactor must keep the
// engine bit-for-bit identical to that one so the
// paper-reproduction benchmarks stay valid; if a deliberate algorithm
// change breaks these values, re-capture them and say so in the
// commit message.
var goldenCampaigns = []struct {
	name   string
	prog   func() subject.Program
	valids int
	execs  int
	hash   uint64
	first  []string
}{
	{"expr", func() subject.Program { return expr.New() },
		7, 3001, 0x2c5263a453a1f172, []string{"7", "+0", "-5", "67", "(3)"}},
	{"cjson", func() subject.Program { return cjson.New() },
		25, 3000, 0xad58a4d7bb389c64, []string{"false", "null", "true", "{}", `""`}},
	{"paren", func() subject.Program { return paren.New() },
		6, 3000, 0xbfacd40b64c6a6a5, []string{"()", "[]", "{}", "<>", "[()]"}},
}

// goldenRun executes one pinned campaign and returns the emitted
// inputs plus the FNV-1a hash of the full NUL-joined sequence.
func goldenRun(t *testing.T, prog subject.Program) (*Result, uint64) {
	t.Helper()
	res := New(prog, Config{Seed: 42, MaxExecs: 3000}).Run()
	h := fnv.New64a()
	for _, v := range res.Valids {
		h.Write(v.Input)
		h.Write([]byte{0})
	}
	return res, h.Sum64()
}

// TestGoldenSerialSequence asserts that the engine reproduces the pre-refactor golden sequences exactly.
func TestGoldenSerialSequence(t *testing.T) {
	for _, g := range goldenCampaigns {
		t.Run(g.name, func(t *testing.T) {
			res, hash := goldenRun(t, g.prog())
			if len(res.Valids) != g.valids || res.Execs != g.execs {
				t.Errorf("valids=%d execs=%d, golden valids=%d execs=%d",
					len(res.Valids), res.Execs, g.valids, g.execs)
			}
			for i, want := range g.first {
				if i >= len(res.Valids) {
					break
				}
				if got := string(res.Valids[i].Input); got != want {
					t.Errorf("valid[%d] = %q, golden %q", i, got, want)
				}
			}
			if hash != g.hash {
				t.Errorf("sequence hash = %#x, golden %#x", hash, g.hash)
			}
		})
	}
}
