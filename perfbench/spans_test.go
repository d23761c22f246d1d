package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Overlapping children: [10,40) and [30,50) cover 40, not 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child nested in another child is still a direct child here
		// and adds nothing: [35,45) lies inside the union.
		{ID: 4, Parent: 1, Name: "c", Start: 35, End: 45},
		// An overhanging child counts only inside the parent: [90,100).
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130},
		// A grandchild does not count against the parent, only against
		// its own parent.
		{ID: 6, Parent: 2, Name: "g", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 10, 5: 40, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeSubtractsFoldedLeaves(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100, Folded: 30},
		{ID: 2, Parent: 1, Name: "child", Start: 50, End: 60},
	}
	if got := selfTimes(spans)[1]; got != 60 {
		t.Errorf("self = %d, want 100 - 10 child - 30 folded = 60", got)
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	p := span{Start: 0, End: 100}
	if c := covered(p, nil); c != 0 {
		t.Errorf("no children covered %d", c)
	}
	kids := []span{{Start: 60, End: 70}, {Start: 0, End: 10}, {Start: 20, End: 20}, {Start: 150, End: 160}}
	if c := covered(p, kids); c != 20 {
		t.Errorf("covered = %d, want 20", c)
	}
}

func TestRecorderNestsAndFolds(t *testing.T) {
	r := newRecorder()
	endOuter := r.begin("outer")
	endInner := r.begin("inner")
	r.leaf("leaf", 5*time.Millisecond)
	endInner()
	r.add("counted", time.Millisecond)
	endOuter()
	if len(r.spans) != 2 || r.spans[1].Parent != r.spans[0].ID {
		t.Fatalf("spans = %+v, want inner under outer", r.spans)
	}
	if r.spans[1].Folded != int64(5*time.Millisecond) || r.spans[0].Folded != 0 {
		t.Errorf("folded = %d/%d, want the leaf on the inner span only", r.spans[0].Folded, r.spans[1].Folded)
	}
	if r.totals["leaf"].n != 1 || r.totals["counted"].d != time.Millisecond {
		t.Errorf("totals = %+v", r.totals)
	}
	var nilRec *recorder
	nilRec.begin("x")()
	nilRec.leaf("x", 1)
	if st := nilRec.byName(); len(st) != 0 {
		t.Errorf("nil recorder recorded %v", st)
	}
}
