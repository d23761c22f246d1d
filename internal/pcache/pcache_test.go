package pcache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// model is the reference implementation the cache must agree with:
// explicit byte-prefix semantics over plain maps, no hashing, no
// filters. Get returns the value of the shortest stored prefix of the
// input, else the exact entry; puts are first-write-wins and bounded
// by one shared entry limit.
type model struct {
	prefixes map[string]string
	exacts   map[string]string
	limit    int
}

func newModel(limit int) *model {
	return &model{prefixes: map[string]string{}, exacts: map[string]string{}, limit: limit}
}

func (m *model) size() int { return len(m.prefixes) + len(m.exacts) }

func (m *model) putPrefix(p, v string) bool {
	if m.size() >= m.limit {
		return false
	}
	if _, dup := m.prefixes[p]; dup {
		return false
	}
	m.prefixes[p] = v
	return true
}

func (m *model) putExact(k, v string) bool {
	if m.size() >= m.limit {
		return false
	}
	if _, dup := m.exacts[k]; dup {
		return false
	}
	m.exacts[k] = v
	return true
}

func (m *model) get(input string) (string, bool) {
	for l := 0; l <= len(input); l++ {
		if v, ok := m.prefixes[input[:l]]; ok {
			return v, true
		}
	}
	v, ok := m.exacts[input]
	return v, ok
}

// randKey draws a short string over a three-letter alphabet, so
// random keys collide, nest and extend each other constantly — the
// regime where prefix semantics can go wrong.
func randKey(rng *rand.Rand) string {
	n := rng.Intn(9)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + rng.Intn(3)))
	}
	return sb.String()
}

// TestModelAgreement drives random interleavings of PutPrefix,
// PutExact and Get against the reference model: every put must admit
// or reject exactly like the model, every lookup must return the
// model's answer.
func TestModelAgreement(t *testing.T) {
	for _, limit := range []int{4, 64, 1 << 16} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit)))
			c := New[string](limit)
			m := newModel(limit)
			for op := 0; op < 20000; op++ {
				k := randKey(rng)
				switch rng.Intn(4) {
				case 0:
					v := fmt.Sprintf("P%q#%d", k, op)
					got, want := c.PutPrefix([]byte(k), v), m.putPrefix(k, v)
					if got != want {
						t.Fatalf("op %d: PutPrefix(%q) = %v, model says %v", op, k, got, want)
					}
				case 1:
					v := fmt.Sprintf("E%q#%d", k, op)
					got, want := c.PutExact([]byte(k), v), m.putExact(k, v)
					if got != want {
						t.Fatalf("op %d: PutExact(%q) = %v, model says %v", op, k, got, want)
					}
				default:
					gotV, _, gotOK := c.Get([]byte(k))
					wantV, wantOK := m.get(k)
					if gotOK != wantOK || gotV != wantV {
						t.Fatalf("op %d: Get(%q) = (%q, %v), model says (%q, %v)",
							op, k, gotV, gotOK, wantV, wantOK)
					}
				}
			}
			if c.Len() != m.size() {
				t.Fatalf("Len() = %d, model holds %d", c.Len(), m.size())
			}
		})
	}
}

// TestShortestPrefixWins pins the nested-prefix contract directly.
func TestShortestPrefixWins(t *testing.T) {
	c := New[string](0)
	c.PutPrefix([]byte("abcd"), "long")
	c.PutPrefix([]byte("ab"), "short")
	c.PutExact([]byte("abcdef"), "exact")
	if v, _, ok := c.Get([]byte("abcdef")); !ok || v != "short" {
		t.Fatalf("Get = (%q, %v), want the shortest prefix entry", v, ok)
	}
	if v, _, ok := c.Get([]byte("a")); ok {
		t.Fatalf("Get(%q) = %q, want a miss (no stored prefix covers it)", "a", v)
	}
}

// TestExactDoesNotMatchExtensions: the exact tier must never answer
// for a proper extension or truncation of its input.
func TestExactDoesNotMatchExtensions(t *testing.T) {
	c := New[string](0)
	c.PutExact([]byte("abc"), "v")
	for _, probe := range []string{"ab", "abcd", "", "abca"} {
		if v, _, ok := c.Get([]byte(probe)); ok {
			t.Errorf("Get(%q) = %q, want miss", probe, v)
		}
	}
	if v, _, ok := c.Get([]byte("abc")); !ok || v != "v" {
		t.Errorf("Get(abc) = (%q, %v), want the exact entry", v, ok)
	}
}

// TestEmptyPrefixDecidesEverything: a deciding prefix of length zero
// answers every lookup, the degenerate reject-all parser.
func TestEmptyPrefixDecidesEverything(t *testing.T) {
	c := New[string](0)
	c.PutPrefix(nil, "all")
	for _, probe := range []string{"", "x", "abc"} {
		if v, _, ok := c.Get([]byte(probe)); !ok || v != "all" {
			t.Errorf("Get(%q) = (%q, %v), want the empty-prefix entry", probe, v, ok)
		}
	}
}

// TestRefRoundTrip: a missing Get's Ref admits the exact entry
// without re-hashing; a hit's Ref upgrades the entry in place; the
// zero Ref is inert.
func TestRefRoundTrip(t *testing.T) {
	c := New[string](0)
	_, ref, ok := c.Get([]byte("key"))
	if ok {
		t.Fatal("unexpected hit on empty cache")
	}
	if !c.PutExactAt(ref, "v1") {
		t.Fatal("PutExactAt on a missed Ref should store")
	}
	if c.PutExactAt(ref, "v2") {
		t.Fatal("PutExactAt is first-write-wins for a stale missed Ref")
	}
	v, ref2, ok := c.Get([]byte("key"))
	if !ok || v != "v1" {
		t.Fatalf("Get = (%q, %v), want the admitted entry", v, ok)
	}
	c.Set(ref2, "v3")
	if v, _, _ := c.Get([]byte("key")); v != "v3" {
		t.Fatalf("Set through a hit Ref did not overwrite: got %q", v)
	}
	c.Set(Ref{}, "nope") // must not panic or store anything
	if c.Len() != 1 {
		t.Fatalf("Len = %d after zero-Ref Set, want 1", c.Len())
	}
}

// TestRetire: a retired cache answers nothing, admits nothing, and
// reports empty.
func TestRetire(t *testing.T) {
	c := New[string](0)
	c.PutExact([]byte("k"), "v")
	c.PutPrefix([]byte("p"), "w")
	c.Retire()
	if !c.Retired() {
		t.Fatal("Retired() = false after Retire")
	}
	if _, _, ok := c.Get([]byte("k")); ok {
		t.Error("Get hit after Retire")
	}
	if c.PutExact([]byte("x"), "v") || c.PutPrefix([]byte("y"), "v") {
		t.Error("Put admitted an entry after Retire")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after Retire, want 0", c.Len())
	}
}
