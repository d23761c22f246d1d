package core

import (
	"testing"

	"pfuzzer/internal/registry"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/subjects/ini"
	"pfuzzer/internal/subjects/urlp"
)

// collectCacheEvents runs a campaign and returns the EventCache
// stream plus the final result.
func collectCacheEvents(t *testing.T, cfg Config, prog interface {
	Name() string
}) ([]Event, *Result) {
	t.Helper()
	var events []Event
	cfg.Events = func(ev Event) {
		if ev.Kind == EventCache {
			events = append(events, ev)
		}
	}
	e, ok := registry.Get(prog.Name())
	if !ok {
		t.Fatalf("subject %s not registered", prog.Name())
	}
	res := New(e.New(), cfg).Run()
	return events, res
}

// TestCacheEventsMonotoneAndComplete: the EventCache stream's
// counters never decrease, every report accounts for every execution
// so far, and the final report matches the result exactly.
func TestCacheEventsMonotoneAndComplete(t *testing.T) {
	events, res := collectCacheEvents(t,
		Config{Seed: 1, MaxExecs: 6000, Cache: CacheOn}, expr.New())
	if len(events) == 0 {
		t.Fatal("cache-enabled campaign emitted no EventCache")
	}
	prev := Event{}
	for i, ev := range events {
		if ev.Hits < prev.Hits || ev.Misses < prev.Misses || ev.Execs < prev.Execs {
			t.Fatalf("event %d went backwards: %+v after %+v", i, ev, prev)
		}
		if ev.Hits+ev.Misses != ev.Execs {
			t.Fatalf("event %d: %d hits + %d misses != %d execs", i, ev.Hits, ev.Misses, ev.Execs)
		}
		prev = ev
	}
	last := events[len(events)-1]
	if last.Hits != res.CacheHits || last.Misses != res.CacheMisses || last.Execs != res.Execs {
		t.Fatalf("final event %+v does not match result (hits=%d misses=%d execs=%d)",
			last, res.CacheHits, res.CacheMisses, res.Execs)
	}
	if res.CacheHits == 0 {
		t.Fatal("expr campaign with the cache forced on recorded zero hits")
	}
}

// TestCacheOffEmitsNothing: CacheOff means no EventCache reports and
// zero counters.
func TestCacheOffEmitsNothing(t *testing.T) {
	events, res := collectCacheEvents(t,
		Config{Seed: 1, MaxExecs: 3000, Cache: CacheOff}, expr.New())
	if len(events) != 0 {
		t.Fatalf("CacheOff campaign emitted %d EventCache reports", len(events))
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 || res.CacheRetired {
		t.Fatalf("CacheOff campaign reported cache state: %d/%d retired=%v",
			res.CacheHits, res.CacheMisses, res.CacheRetired)
	}
}

// TestCacheCountersSurviveSnapshotResume: counters carry across a
// snapshot/restore cut, the stream invariant holds on the resumed
// half, and the resumed campaign's corpus still matches the
// uninterrupted run's.
func TestCacheCountersSurviveSnapshotResume(t *testing.T) {
	e, _ := registry.Get("expr")
	cfg := Config{Seed: 1, MaxExecs: 6000, Cache: CacheOn}
	want := New(e.New(), cfg).Run()

	first := NewCampaign(e.New(), cfg)
	for first.Result().Execs < 2500 {
		if _, more := first.Step(333); !more {
			t.Fatal("campaign finished before the cut")
		}
	}
	cut := first.Result()
	if cut.CacheHits+cut.CacheMisses != cut.Execs {
		t.Fatalf("pre-cut: %d + %d != %d", cut.CacheHits, cut.CacheMisses, cut.Execs)
	}
	blob, err := first.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits != cut.CacheHits || snap.CacheMisses != cut.CacheMisses {
		t.Fatalf("snapshot counters %d/%d, live %d/%d",
			snap.CacheHits, snap.CacheMisses, cut.CacheHits, cut.CacheMisses)
	}

	var events []Event
	resumed, err := Restore(e.New(), Config{Events: func(ev Event) {
		if ev.Kind == EventCache {
			events = append(events, ev)
		}
	}}, snap)
	if err != nil {
		t.Fatal(err)
	}
	got := resumed.Result()
	if got.CacheHits != cut.CacheHits || got.CacheMisses != cut.CacheMisses {
		t.Fatalf("restored counters %d/%d, want %d/%d",
			got.CacheHits, got.CacheMisses, cut.CacheHits, cut.CacheMisses)
	}
	for {
		if spent, more := resumed.Step(500); !more || spent == 0 {
			break
		}
	}
	if got.CacheHits+got.CacheMisses != got.Execs {
		t.Fatalf("post-resume: %d + %d != %d", got.CacheHits, got.CacheMisses, got.Execs)
	}
	for i, ev := range events {
		if ev.Hits+ev.Misses != ev.Execs {
			t.Fatalf("resumed event %d: %d + %d != %d", i, ev.Hits, ev.Misses, ev.Execs)
		}
	}
	// The resumed campaign rebuilds its cache lazily, so its hit/miss
	// split differs from the uninterrupted run's — but the corpus must
	// not.
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed campaign fingerprint %#x, uninterrupted %#x",
			got.Fingerprint(), want.Fingerprint())
	}
}

// TestCacheAutoRetires: the adaptive mode drops the cache on a
// low-hit-rate campaign (urlp's open URL grammar executes mostly
// fresh inputs) and keeps it where it pays (ini saturates to a
// near-total hit rate). Both remain corpus-identical to CacheOff.
func TestCacheAutoRetires(t *testing.T) {
	low := New(urlp.New(), Config{Seed: 1, MaxExecs: 20000}).Run()
	if !low.CacheRetired {
		t.Errorf("urlp auto campaign kept the cache at hit rate %.1f%%", 100*low.CacheHitRate())
	}
	if low.CacheHits+low.CacheMisses != low.Execs {
		t.Errorf("urlp: %d + %d != %d after retirement", low.CacheHits, low.CacheMisses, low.Execs)
	}

	high := New(ini.New(), Config{Seed: 1, MaxExecs: 20000}).Run()
	if high.CacheRetired {
		t.Errorf("ini auto campaign retired the cache at hit rate %.1f%%", 100*high.CacheHitRate())
	}
	if high.CacheHitRate() < 0.9 {
		t.Errorf("ini hit rate %.1f%%, expected a saturating campaign", 100*high.CacheHitRate())
	}

	for _, name := range []string{"urlp", "ini"} {
		e, _ := registry.Get(name)
		auto := New(e.New(), Config{Seed: 1, MaxExecs: 20000}).Run()
		off := New(e.New(), Config{Seed: 1, MaxExecs: 20000, Cache: CacheOff}).Run()
		if auto.Fingerprint() != off.Fingerprint() {
			t.Errorf("%s: CacheAuto campaign diverged from CacheOff", name)
		}
	}
}
