package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// slice is the execution count per Step, pfuzzer's default snapshot
// cadence (-snap-every 10000).
const slice = 10000

// timedProgram is a subject.Program that folds the duration of every
// run into the recorder's innermost open span.
type timedProgram struct {
	subject.Program
	rec *recorder
}

func (p *timedProgram) Run(t *trace.Tracer) int {
	t0 := time.Now()
	exit := p.Program.Run(t)
	p.rec.leaf("subjects.run", time.Since(t0))
	return exit
}

// newProgram builds a fresh subject, wrapped when rec is recording.
func newProgram(e registry.Entry, rec *recorder) subject.Program {
	p := e.New()
	if rec == nil {
		return p
	}
	return &timedProgram{Program: p, rec: rec}
}

func entry(name string) (registry.Entry, error) {
	e, ok := registry.Get(name)
	if !ok {
		return e, fmt.Errorf("unknown subject %q", name)
	}
	return e, nil
}

// campaignSeed derives the seed of campaign i of round r from the run
// seed (splitmix64), so runs with different seeds share no campaign.
func campaignSeed(seed int64, r, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(r)<<20 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// rounds sizes a run's fixed work: the number of rounds that take
// about seconds on a 2-core x86 box, at least two so a median has
// company.
func rounds(seconds int, perRound float64) int {
	return max(2, int(math.Round(float64(seconds)/perRound)))
}

// phase accumulates one kind of round. A traced run keeps two: the
// traced rounds and interleaved untraced control rounds doing the same
// work, whose throughput ratio is the tracing overhead.
type phase struct {
	execs   int
	busy    time.Duration // wall time of the stepping phases
	peaks   []float64     // peak resident set of each round, MB
	setups  []float64     // seconds per set-up
	resumes []float64     // seconds per resume sample
	hits    int
	misses  int
	state   int64 // bytes of state the workload's resume reads

	mallocs, allocBytes uint64 // heap allocations inside Step calls
	snapBytes           []int  // encoded size of every snapshot cut
}

// rate is the phase's executions per second of stepping: the machine's
// speed changes in bursts of seconds, and the whole phase averages over
// more of them than a median over its rounds would.
func (ph *phase) rate() float64 { return float64(ph.execs) / ph.busy.Seconds() }

// stepper runs Step calls for one phase, timing them into the busy
// clock and, when recording, into a core.step span plus the heap
// allocations they made.
type stepper struct {
	ph  *phase
	rec *recorder
	ms  runtime.MemStats
}

func (s *stepper) step(c *core.Campaign) (spent int, more bool) {
	if s.rec != nil {
		runtime.ReadMemStats(&s.ms)
	}
	m0, b0 := s.ms.Mallocs, s.ms.TotalAlloc
	end := s.rec.begin("core.step")
	t0 := time.Now()
	spent, more = c.Step(slice)
	s.ph.busy += time.Since(t0)
	end()
	if s.rec != nil {
		runtime.ReadMemStats(&s.ms)
		s.ph.mallocs += s.ms.Mallocs - m0
		s.ph.allocBytes += s.ms.TotalAlloc - b0
	}
	s.ph.execs += spent
	return spent, more
}

// snapshot cuts and encodes the campaign's state (Campaign.Snapshot,
// Snapshot.Marshal), adding the time to the busy clock when busy.
func (s *stepper) snapshot(c *core.Campaign, busy bool) ([]byte, error) {
	t0 := time.Now()
	end := s.rec.begin("core.snapshot_build")
	snap := c.Snapshot()
	end()
	end = s.rec.begin("core.snapshot_encode")
	blob, err := snap.Marshal()
	end()
	if busy {
		s.ph.busy += time.Since(t0)
	}
	if err != nil {
		return nil, fmt.Errorf("encoding snapshot: %w", err)
	}
	s.ph.snapBytes = append(s.ph.snapBytes, len(blob))
	return blob, nil
}

// restore decodes a snapshot and rebuilds a campaign from it
// (UnmarshalSnapshot, Restore) over an unwrapped subject: a restored
// campaign is only stepped by output checks, outside every measured
// phase.
func restore(e registry.Entry, blob []byte, rec *recorder) (*core.Campaign, error) {
	end := rec.begin("core.snapshot_decode")
	snap, err := core.UnmarshalSnapshot(blob)
	end()
	if err != nil {
		return nil, err
	}
	end = rec.begin("core.restore")
	defer end()
	return core.Restore(e.New(), core.Config{MineLexer: e.Lexer}, snap)
}

// finish steps c to the end of its budget outside any measured phase.
func finish(c *core.Campaign) {
	for {
		spent, more := c.Step(slice)
		if !more || spent == 0 {
			return
		}
	}
}

// sameValids reports whether a journal holds exactly the engine's
// emitted valids, in order.
func sameValids(j []corpus.Valid, e []core.Valid) bool {
	if len(j) != len(e) {
		return false
	}
	for i := range j {
		if j[i].Exec != e[i].Exec || !bytes.Equal(j[i].Input, e[i].Input) {
			return false
		}
	}
	return true
}

// gcCPU reads the runtime's cumulative GC CPU time.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// roundFunc runs round r of a workload into ph, recording spans into
// rec when it is non-nil.
type roundFunc func(r int, rec *recorder, ph *phase) error

// runRounds drives n rounds. An untraced run does each round once. A
// traced run does each round twice, traced and untraced in alternating
// order so slow stretches of the machine hit both alike, and reports
// the per-layer metrics of the traced half.
func (b *bench) runRounds(n int, round roundFunc) (main, control *phase, gcS float64, err error) {
	main, control = &phase{}, &phase{}
	if b.traced {
		b.rec = newRecorder()
	}
	for r := 0; r < n; r++ {
		for k := 0; k < 2; k++ {
			var rec *recorder
			ph := main
			switch {
			case !b.traced && k == 1:
				continue
			case b.traced && (r+k)%2 == 0:
				ph = control
			case b.traced:
				rec = b.rec
			}
			g0 := gcCPU()
			if err := b.measureRound(r, rec, ph, round); err != nil {
				return nil, nil, 0, err
			}
			if rec != nil {
				gcS += gcCPU() - g0
			}
		}
	}
	return main, control, gcS, nil
}

// measureRound runs one round and records its peak resident set:
// freed memory goes back to the OS and the kernel's peak counter is
// reset first, so each round's peak is its own.
func (b *bench) measureRound(r int, rec *recorder, ph *phase, round roundFunc) error {
	resetPeakRSS()
	if err := round(r, rec, ph); err != nil {
		return err
	}
	ph.peaks = append(ph.peaks, peakRSSMB())
	return nil
}

// engineLayers fills the per-layer metrics the recorder and the phase
// observe in-process (core, subjects, pcache, snapshot, corpus).
func (b *bench) engineLayers(main, control *phase, gcS float64) {
	L := b.layer
	st := b.rec.byName()
	get := func(n string) *layerStats {
		if s := st[n]; s != nil {
			return s
		}
		return &layerStats{}
	}
	tot := func(n string) total {
		if t := b.rec.totals[n]; t != nil {
			return *t
		}
		return total{}
	}
	L["core.step_s"] = get("core.step").dur.Seconds()
	L["core.self_s"] = get("core.step").self.Seconds()
	L["core.event_sink_s"] = tot("core.event_sink").d.Seconds()
	if main.execs > 0 {
		L["core.allocs_per_exec"] = float64(main.mallocs) / float64(main.execs)
		L["core.alloc_bytes_per_exec"] = float64(main.allocBytes) / float64(main.execs)
	}
	L["runtime.gc_cpu_s"] = gcS
	L["subjects.run_s"] = tot("subjects.run").d.Seconds()
	L["subjects.runs"] = float64(tot("subjects.run").n)
	L["pcache.hits"] = float64(main.hits)
	L["pcache.misses"] = float64(main.misses)
	if main.hits+main.misses > 0 {
		L["pcache.hit_ratio"] = float64(main.hits) / float64(main.hits+main.misses)
	}
	L["core.snapshot_build_s"] = get("core.snapshot_build").dur.Seconds()
	L["core.snapshot_encode_s"] = get("core.snapshot_encode").dur.Seconds()
	if n := len(main.snapBytes); n > 0 {
		sum := 0
		for _, x := range main.snapBytes {
			sum += x
		}
		L["core.snapshot_bytes"] = float64(sum) / float64(n)
	}
	L["core.snapshot_decode_s"] = get("core.snapshot_decode").dur.Seconds()
	L["core.restore_s"] = get("core.restore").dur.Seconds()
	L["corpus.create_s"] = get("corpus.create").dur.Seconds()
	L["corpus.append_valid_s"] = tot("corpus.append_valid").d.Seconds()
	app := get("corpus.append_snapshot")
	L["corpus.append_snapshot_s"] = app.dur.Seconds()
	L["corpus.append_snapshot_s_p50"] = median(app.calls)
	if math.IsNaN(L["corpus.append_snapshot_s_p50"]) {
		L["corpus.append_snapshot_s_p50"] = 0
	}
	L["corpus.close_s"] = get("corpus.close").dur.Seconds()
	L["corpus.open_s"] = get("corpus.open").dur.Seconds()
	if control.execs > 0 {
		L["trace.overhead_ratio"] = main.rate() / control.rate()
	}
}
