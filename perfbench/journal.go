package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
)

// The journal workload: the pfuzzer -out path at its default snapshot
// cadence on the subjects persistence work is judged on. Every Step
// slice is followed by Campaign.Snapshot, Snapshot.Marshal and
// Store.AppendSnapshot, so persistence takes most of the wall time and
// resuming pits the read path against the write path.
//
// The workload mirrors fresh (set-up) and drive (the step/snapshot
// loop) of cmd/pfuzzer/main.go rather than running the binary, so its
// spans can wrap each call. A change to either function is not
// measured here until this file follows it.
var journalSubjects = []string{"cjson", "tinyc", "expr"}

const (
	journalExecs  = 30000 // executions per campaign: three snapshots each
	journalRoundS = 3.5   // seconds one round takes (see rounds)
	journalSetups = 40    // extra set-ups per subject per round
)

// runJournal runs rounds of one journaled campaign per subject. After
// each campaign closes its journal, the journal is reopened, checked
// against the engine's valids, and resumed (Open, UnmarshalSnapshot,
// Restore). The mean over a round's three campaigns is one resume
// sample: the three subjects' resumes differ by a factor of two, so a
// median over single resumes would fall between subjects and shift
// with every seed's mix. Round 0 also keeps each
// campaign's mid-run snapshot and checks that a campaign restored from
// it and stepped to the same budget reproduces the fingerprint.
func runJournal(b *bench) error {
	var state int64
	round := func(r int, rec *recorder, ph *phase) error {
		st := &stepper{ph: ph, rec: rec}
		var resumeS float64
		for i, name := range journalSubjects {
			e, err := entry(name)
			if err != nil {
				return err
			}
			seed := campaignSeed(b.seed, r, i)
			for k := 0; k < journalSetups; k++ {
				probe := filepath.Join(b.dir, "setup.pfc")
				_, store, _, err := journalSetup(e, seed, probe, nil, ph)
				if err == nil {
					err = errors.Join(store.Close(), os.Remove(probe))
				}
				if !b.ops.try(err, "journal set-up") {
					return err
				}
			}
			path := filepath.Join(b.dir, fmt.Sprintf("r%d-%s-%t.pfc", r, name, rec != nil))
			c, store, sinkErr, err := journalSetup(e, seed, path, rec, ph)
			if !b.ops.try(err, "journal set-up") {
				return err
			}
			end := rec.begin("journal.campaign")
			var mid []byte
			for {
				spent, more := st.step(c)
				blob, err := st.snapshot(c, true)
				if !b.ops.try(err, "journal snapshot") {
					return err
				}
				t0 := time.Now()
				endA := rec.begin("corpus.append_snapshot")
				err = store.AppendSnapshot(blob)
				endA()
				ph.busy += time.Since(t0)
				if !b.ops.try(err, "journal append") {
					return err
				}
				if mid == nil && c.Result().Execs >= journalExecs/2 {
					mid = blob
				}
				if !more || spent == 0 {
					break
				}
			}
			end()
			endC := rec.begin("corpus.close")
			err = store.Close()
			endC()
			b.ops.try(err, "journal close")
			b.ops.try(*sinkErr, "journal append valid")
			res := c.Result()
			ph.hits += res.CacheHits
			ph.misses += res.CacheMisses
			b.ops.check(res.Execs >= journalExecs && len(res.Valids) > 0,
				"journal %s seed %d: %d execs, %d valids", name, seed, res.Execs, len(res.Valids))

			d, err := journalResume(b, e, path, res, rec)
			if err != nil {
				return err
			}
			resumeS += d
			if fi, err := os.Stat(path); err == nil && (rec != nil) == b.traced {
				state += fi.Size()
				if fi, err := os.Stat(corpus.SnapPath(path)); err == nil {
					state += fi.Size()
				}
			}
			if r == 0 && (rec != nil) == b.traced {
				// The campaign restored from the kept mid-run snapshot
				// must retrace the uninterrupted one.
				c2, err := restore(e, mid, nil)
				if b.ops.try(err, "journal mid-run restore") {
					finish(c2)
					b.ops.check(c2.Result().Fingerprint() == res.Fingerprint(),
						"journal %s seed %d: resumed fingerprint %x != uninterrupted %x",
						name, seed, c2.Result().Fingerprint(), res.Fingerprint())
				}
			}
			if err := os.Remove(path); err != nil {
				return err
			}
			if err := os.Remove(corpus.SnapPath(path)); err != nil {
				return err
			}
		}
		ph.resumes = append(ph.resumes, resumeS/float64(len(journalSubjects)))
		return nil
	}
	n := rounds(b.seconds, journalRoundS)
	main, control, gcS, err := b.runRounds(n, round)
	if err != nil {
		return err
	}
	b.e2e["execs_per_s"] = main.rate()
	b.e2e["setup_s"] = median(main.setups)
	b.e2e["resume_s"] = median(main.resumes)
	b.e2e["state_mb"] = float64(state) / float64(n) / 1e6
	b.e2e["peak_rss_mb"] = median(main.peaks)
	b.note("journal: %d execs in %.3fs stepping (snapshots included), %d set-ups, %d resume samples",
		main.execs, main.busy.Seconds(), len(main.setups), len(main.resumes))
	if b.traced {
		b.engineLayers(main, control, gcS)
		b.layer["corpus.snapshot_file_bytes"] = float64(state) / float64(3*n)
		b.layer["trace.span_coverage"] = coverage(b.rec, "journal.campaign",
			"core.step", "core.snapshot_build", "core.snapshot_encode", "corpus.append_snapshot")
	}
	return nil
}

// journalSetup is set-up as pfuzzer -out does it (fresh in
// cmd/pfuzzer/main.go): create the journal, build the subject and the
// campaign, wire valids into the journal.
// The returned error pointer holds the first failed valid append.
func journalSetup(e registry.Entry, seed int64, path string, rec *recorder, ph *phase) (*core.Campaign, *corpus.Store, *error, error) {
	t0 := time.Now()
	end := rec.begin("corpus.create")
	store, err := corpus.Create(path, corpus.Meta{Subject: e.Name, Tool: "perfbench", Seed: seed, MaxExecs: journalExecs})
	end()
	if err != nil {
		return nil, nil, nil, err
	}
	sinkErr := new(error)
	sink := func(ev core.Event) {
		if ev.Kind != core.EventValid {
			return
		}
		t := time.Now()
		if err := store.AppendValid(ev.Execs, ev.Input); err != nil && *sinkErr == nil {
			*sinkErr = err
		}
		if rec != nil {
			d := time.Since(t)
			rec.leaf("core.event_sink", d)
			rec.add("corpus.append_valid", d)
		}
	}
	cfg := core.Config{Seed: seed, MaxExecs: journalExecs, MineLexer: e.Lexer, Events: sink}
	c := core.NewCampaign(newProgram(e, rec), cfg)
	ph.setups = append(ph.setups, time.Since(t0).Seconds())
	return c, store, sinkErr, nil
}

// journalResume reopens a closed journal, checks it holds exactly the
// engine's valids, and resumes the campaign from its last snapshot:
// state on disk to ready to step. It returns the seconds that took.
func journalResume(b *bench, e registry.Entry, path string, res *core.Result, rec *recorder) (float64, error) {
	t0 := time.Now()
	end := rec.begin("corpus.open")
	store, err := corpus.Open(path)
	end()
	if !b.ops.try(err, "journal open") {
		return 0, err
	}
	defer store.Close() //nolint:errcheck // read-only reopen
	c, err := restore(e, store.Snapshot(), rec)
	d := time.Since(t0).Seconds()
	if !b.ops.try(err, "journal resume") {
		return 0, err
	}
	b.ops.check(sameValids(store.Valids(), res.Valids),
		"journal %s: journaled corpus (%d valids) differs from the engine's (%d)", e.Name, len(store.Valids()), len(res.Valids))
	b.ops.check(c.Result().Execs == res.Execs && len(c.Result().Valids) == len(res.Valids),
		"journal %s: resumed at %d execs/%d valids, closed at %d/%d", e.Name,
		c.Result().Execs, len(c.Result().Valids), res.Execs, len(res.Valids))
	return d, nil
}
