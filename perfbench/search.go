package main

import (
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
)

// The search workload: in-memory campaigns, no journal. The engine
// does almost all the work and persistence none, so queue, scoring,
// cache and subject changes show here and a snapshot change must not
// move execs_per_s. expr and tinyc spend little time in the subject
// (tinyc with most executions served by the prefix cache, expr with
// almost none); mjs spends about a quarter of it in the subject.
var searchSubjects = []string{"expr", "tinyc", "mjs"}

const (
	searchExecs  = 20000 // executions per campaign
	searchRoundS = 1.3   // seconds one round takes (see rounds)
	searchSetups = 10    // extra set-ups per subject per round
)

// runSearch runs rounds of one campaign per subject, each campaign
// with its own seed, so a run averages over many trajectories. Every
// campaign is snapshotted after its first Step (outside the measured
// phase); at the end of the round the three snapshots are resumed
// (UnmarshalSnapshot + Restore, the in-memory resume), and the mean
// per campaign is one resume sample. In the first round each resumed
// campaign is also stepped to the end of its budget and must
// reproduce the uninterrupted campaign's fingerprint.
func runSearch(b *bench) error {
	var state int64
	round := func(r int, rec *recorder, ph *phase) error {
		st := &stepper{ph: ph, rec: rec}
		kept := make([][]byte, len(searchSubjects))
		ran := make([]*core.Result, len(searchSubjects))
		entries := make([]registry.Entry, len(searchSubjects))
		for i, name := range searchSubjects {
			e, err := entry(name)
			if err != nil {
				return err
			}
			entries[i] = e
			cfg := core.Config{Seed: campaignSeed(b.seed, r, i), MaxExecs: searchExecs, MineLexer: e.Lexer}
			for k := 0; k < searchSetups; k++ {
				t0 := time.Now()
				core.NewCampaign(e.New(), cfg)
				ph.setups = append(ph.setups, time.Since(t0).Seconds())
			}
			t0 := time.Now()
			c := core.NewCampaign(newProgram(e, rec), cfg)
			ph.setups = append(ph.setups, time.Since(t0).Seconds())

			end := rec.begin("search.campaign")
			for {
				spent, more := st.step(c)
				if kept[i] == nil {
					if kept[i], err = st.snapshot(c, false); !b.ops.try(err, "search snapshot") {
						return err
					}
				}
				if !more || spent == 0 {
					break
				}
			}
			end()
			res := c.Result()
			ran[i] = res
			ph.hits += res.CacheHits
			ph.misses += res.CacheMisses
			b.ops.check(res.Execs >= searchExecs && len(res.Valids) > 0,
				"search %s seed %d: %d execs, %d valids", name, cfg.Seed, res.Execs, len(res.Valids))
		}
		t0 := time.Now()
		resumed := make([]*core.Campaign, len(kept))
		for i, blob := range kept {
			c, err := restore(entries[i], blob, rec)
			if !b.ops.try(err, "search resume") {
				return err
			}
			resumed[i] = c
		}
		ph.resumes = append(ph.resumes, time.Since(t0).Seconds()/float64(len(kept)))
		if (rec != nil) != b.traced {
			return nil // control rounds of a traced run only time
		}
		for i, c := range resumed {
			state += int64(len(kept[i]))
			if r == 0 {
				// The resumed campaign must retrace the uninterrupted one.
				finish(c)
				b.ops.check(c.Result().Fingerprint() == ran[i].Fingerprint(),
					"search %s: resumed fingerprint %x != uninterrupted %x",
					entries[i].Name, c.Result().Fingerprint(), ran[i].Fingerprint())
			}
		}
		return nil
	}
	n := rounds(b.seconds, searchRoundS)
	main, control, gcS, err := b.runRounds(n, round)
	if err != nil {
		return err
	}
	b.e2e["execs_per_s"] = main.rate()
	b.e2e["setup_s"] = median(main.setups)
	b.e2e["resume_s"] = median(main.resumes)
	b.e2e["state_mb"] = float64(state) / float64(n*len(searchSubjects)) / 1e6
	b.e2e["peak_rss_mb"] = median(main.peaks)
	b.note("search: %d execs in %.3fs stepping, %d set-ups, %d resume samples", main.execs, main.busy.Seconds(), len(main.setups), len(main.resumes))
	if b.traced {
		b.engineLayers(main, control, gcS)
		b.layer["trace.span_coverage"] = coverage(b.rec, "search.campaign",
			"core.step", "core.snapshot_build", "core.snapshot_encode")
	}
	return nil
}
