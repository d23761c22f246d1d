package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
)

// fakeRunner consumes a fixed budget in whatever slices it is given,
// recording concurrent entry to prove the one-worker-per-job rule.
type fakeRunner struct {
	budget   int
	spent    int
	inStep   atomic.Int32
	overlaps atomic.Int32
	steps    int
}

func (r *fakeRunner) Step(n int) (int, bool) {
	if r.inStep.Add(1) > 1 {
		r.overlaps.Add(1)
	}
	defer r.inStep.Add(-1)
	r.steps++
	left := r.budget - r.spent
	if n > left {
		n = left
	}
	r.spent += n
	return n, r.spent < r.budget
}

// TestFleetRunsAllJobs: every job completes its own budget, no job is
// stepped by two workers at once, and the fleet's per-job accounting
// matches what the runners spent.
func TestFleetRunsAllJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var jobs []*Job
			var runners []*fakeRunner
			for i := 0; i < 9; i++ {
				r := &fakeRunner{budget: 10000 + 1000*i}
				runners = append(runners, r)
				jobs = append(jobs, &Job{Name: fmt.Sprintf("job%d", i), Runner: r})
			}
			fl := Fleet{Workers: workers, Slice: 1024}
			fl.Run(jobs)
			for i, r := range runners {
				if r.spent != r.budget {
					t.Errorf("job%d spent %d of %d", i, r.spent, r.budget)
				}
				if r.overlaps.Load() != 0 {
					t.Errorf("job%d was stepped concurrently %d times", i, r.overlaps.Load())
				}
				if !jobs[i].Done() {
					t.Errorf("job%d not marked done", i)
				}
				if jobs[i].Execs() != r.budget {
					t.Errorf("job%d fleet accounting %d, runner spent %d", i, jobs[i].Execs(), r.budget)
				}
				if r.steps < 2 {
					t.Errorf("job%d ran in %d steps; the fleet should be slicing", i, r.steps)
				}
			}
		})
	}
}

// TestFleetGlobalBudget: MaxTotalExecs cuts the fleet off and retires
// unfinished jobs instead of hanging on them.
func TestFleetGlobalBudget(t *testing.T) {
	var jobs []*Job
	var runners []*fakeRunner
	for i := 0; i < 4; i++ {
		r := &fakeRunner{budget: 1 << 30}
		runners = append(runners, r)
		jobs = append(jobs, &Job{Name: fmt.Sprintf("job%d", i), Runner: r})
	}
	fl := Fleet{Workers: 2, Slice: 500, MaxTotalExecs: 10000}
	fl.Run(jobs)
	total := 0
	for i, r := range runners {
		total += r.spent
		if !jobs[i].Done() {
			t.Errorf("job%d not retired at the global budget", i)
		}
	}
	if total != 10000 {
		t.Errorf("fleet spent %d execs, global budget is 10000", total)
	}
}

// trickleRunner spends far less than any slice it is offered, so its
// steps refund most of their budget reservation.
type trickleRunner struct {
	spent int
}

func (r *trickleRunner) Step(n int) (int, bool) {
	if n > 100 {
		n = 100
	}
	r.spent += n
	return n, true
}

// TestFleetBudgetRefunds pins that a transiently exhausted budget —
// fully reserved by in-flight steps that then refund most of it —
// does not retire jobs early: the fleet must spend the global budget
// exactly, not strand the refunded part.
func TestFleetBudgetRefunds(t *testing.T) {
	const budget = 1000
	var runners []*trickleRunner
	var jobs []*Job
	for i := 0; i < 2; i++ {
		r := &trickleRunner{}
		runners = append(runners, r)
		jobs = append(jobs, &Job{Name: fmt.Sprintf("j%d", i), Runner: r})
	}
	fl := Fleet{Workers: 2, Slice: 4096, MaxTotalExecs: budget}
	fl.Run(jobs)
	total := 0
	for _, r := range runners {
		total += r.spent
	}
	if total != budget {
		t.Errorf("fleet spent %d of the %d global budget; refunded reservations were stranded", total, budget)
	}
}

// TestFleetProgressSerialized: OnProgress fires once per step, is
// never called concurrently (the sink is deliberately unsynchronized
// under -race), and observes the final totals.
func TestFleetProgressSerialized(t *testing.T) {
	var events []Progress
	var mu sync.Mutex // only to silence the checker on the final read; calls are serialized by the fleet
	fl := Fleet{Workers: 4, Slice: 700, OnProgress: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}}
	var jobs []*Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, &Job{Name: fmt.Sprintf("j%d", i), Runner: &fakeRunner{budget: 3000}})
	}
	fl.Run(jobs)
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.Finished != 5 || last.Total != 5 {
		t.Errorf("final progress %d/%d, want 5/5", last.Finished, last.Total)
	}
	if last.Execs != 5*3000 {
		t.Errorf("final progress execs %d, want %d", last.Execs, 5*3000)
	}
}

// TestFleetCampaignSeedIdentical is the orchestration acceptance
// property: pFuzzer campaigns multiplexed
// through a concurrent fleet emit exactly the sequences their
// standalone Runs do — slicing and interleaving perturb nothing.
func TestFleetCampaignSeedIdentical(t *testing.T) {
	subjects := []string{"expr", "cjson", "tinyc"}
	const execs = 3000

	want := map[string]*core.Result{}
	for _, name := range subjects {
		e, _ := registry.Get(name)
		want[name] = core.New(e.New(), core.Config{Seed: 42, MaxExecs: execs}).Run()
	}

	var jobs []*Job
	camps := map[string]*core.Campaign{}
	for _, name := range subjects {
		e, _ := registry.Get(name)
		c := core.NewCampaign(e.New(), core.Config{Seed: 42, MaxExecs: execs})
		camps[name] = c
		jobs = append(jobs, &Job{Name: name, Runner: c, Slice: 337})
	}
	fl := Fleet{Workers: 3}
	fl.Run(jobs)

	for _, name := range subjects {
		got, w := camps[name].Result(), want[name]
		if got.Execs != w.Execs || len(got.Valids) != len(w.Valids) {
			t.Fatalf("%s: fleet run execs=%d valids=%d, standalone execs=%d valids=%d",
				name, got.Execs, len(got.Valids), w.Execs, len(w.Valids))
		}
		for i := range w.Valids {
			if string(got.Valids[i].Input) != string(w.Valids[i].Input) {
				t.Errorf("%s: valid[%d] = %q, standalone %q", name, i, got.Valids[i].Input, w.Valids[i].Input)
			}
		}
	}
}
