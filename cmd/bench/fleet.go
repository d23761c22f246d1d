package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"pfuzzer/internal/campaign"
	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
)

// The -fleet-sweep mode measures how the engine uses several cores:
// by running several independent campaigns at once, never by
// splitting one. It builds fleetK campaigns per subject (seeds
// seed..seed+fleetK-1) and runs the whole set through
// campaign.Fleet{Workers: 1} and campaign.Fleet{Workers: fleetK}, the
// way pfuzzerd and evaluate -parallel multiplex campaigns over a pool.
// One fleet over the matrix, not one per subject: campaigns of one
// subject under different seeds can differ several-fold in cost, so a
// per-subject pair would measure that imbalance as much as the
// scaling.
//
// Two gates ride along. Every campaign's fingerprint, under either
// fleet width, must equal its standalone Run: multiplexing may change
// wall-clock only. And on a host with two or more CPUs the aggregate
// speedup must reach fleetMinSpeedup; a fleet that cannot turn a
// second core into throughput is the regression this gate catches. A
// shared 2-core box runs close to that bar (EXPERIMENTS.md §10), so
// one failing run there is weak evidence.
const (
	fleetK          = 2
	fleetMinSpeedup = 1.5
)

// FleetCampaign is one campaign of the matrix.
type FleetCampaign struct {
	Subject     string `json:"subject"`
	Seed        int64  `json:"seed"`
	Execs       int    `json:"execs"`
	Fingerprint string `json:"fingerprint"`
	Match       bool   `json:"fingerprint_match"`
}

// Wall is one fleet width's median wall time and aggregate throughput.
type Wall struct {
	NS          int64   `json:"ns"`
	ExecsPerSec float64 `json:"execs_per_sec"`
}

// FleetReport is the -fleet-sweep trajectory file.
type FleetReport struct {
	Bench      string          `json:"bench"`
	Quick      bool            `json:"quick"`
	K          int             `json:"k"`
	Execs      int             `json:"execs"` // budget per campaign
	Reps       int             `json:"reps"`
	Seed       int64           `json:"seed"`
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Campaigns  []FleetCampaign `json:"campaigns"`

	Serial      Wall     `json:"fleet_workers_1"`
	Parallel    Wall     `json:"fleet_workers_k"`
	Speedup     float64  `json:"speedup"`
	GateApplied bool     `json:"speedup_gate_applied"`
	Diverged    []string `json:"fingerprint_divergence,omitempty"`
}

// fleetJob is one campaign of the matrix: its subject, seed and the
// fingerprint of its standalone run.
type fleetJob struct {
	entry registry.Entry
	seed  int64
	solo  uint64
}

// fleetRun steps fresh campaigns for every job through a fleet of the
// given width and returns their results and the fleet's wall time.
func fleetRun(jobs []fleetJob, execs, workers int) ([]*core.Result, time.Duration) {
	camps := make([]*core.Campaign, len(jobs))
	fj := make([]*campaign.Job, len(jobs))
	for i, j := range jobs {
		camps[i] = core.NewCampaign(j.entry.New(), core.Config{Seed: j.seed, MaxExecs: execs})
		fj[i] = &campaign.Job{Name: fmt.Sprintf("%s/%d", j.entry.Name, j.seed), Runner: camps[i]}
	}
	fl := campaign.Fleet{Workers: workers}
	t0 := time.Now()
	fl.Run(fj)
	wall := time.Since(t0)
	res := make([]*core.Result, len(camps))
	for i, c := range camps {
		res[i] = c.Result()
	}
	return res, wall
}

// runFleetSweep is the -fleet-sweep entry point.
func runFleetSweep(entries []registry.Entry, seed int64, execs, reps int, quick bool, outPath string) {
	rep := FleetReport{
		Bench:      "pfuzzer fleet scaling: independent campaigns one vs K at a time",
		Quick:      quick,
		K:          fleetK,
		Execs:      execs,
		Reps:       reps,
		Seed:       seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	rep.GateApplied = rep.NumCPU >= 2
	var jobs []fleetJob
	total := 0
	for _, e := range entries {
		for s := seed; s < seed+fleetK; s++ {
			res := core.New(e.New(), core.Config{Seed: s, MaxExecs: execs}).Run()
			total += res.Execs
			jobs = append(jobs, fleetJob{entry: e, seed: s, solo: res.Fingerprint()})
			rep.Campaigns = append(rep.Campaigns, FleetCampaign{
				Subject: e.Name, Seed: s, Execs: res.Execs,
				Fingerprint: fmt.Sprintf("%#x", res.Fingerprint()), Match: true,
			})
		}
	}

	// Each repetition runs both widths back to back, in alternating
	// order, and yields one paired ratio; the speedup is the median of
	// those. A shared box changes speed in bursts of seconds, which a
	// ratio of two best-of walls taken at different moments reads as
	// scaling, and a back-to-back pair mostly cancels.
	widths := [2]int{1, fleetK}
	walls := [2][]time.Duration{}
	var ratios []float64
	for r := 0; r < reps; r++ {
		order := [2]int{0, 1}
		if r%2 == 1 {
			order = [2]int{1, 0}
		}
		var pair [2]time.Duration
		for _, w := range order {
			results, wall := fleetRun(jobs, execs, widths[w])
			for i, res := range results {
				if res.Fingerprint() != jobs[i].solo {
					rep.Campaigns[i].Match = false
				}
			}
			pair[w] = wall
			walls[w] = append(walls[w], wall)
		}
		ratios = append(ratios, ratio(pair[0], pair[1]))
	}
	for _, fc := range rep.Campaigns {
		if !fc.Match {
			rep.Diverged = append(rep.Diverged, fmt.Sprintf("%s/%d", fc.Subject, fc.Seed))
		}
	}
	serial, parallel := median(walls[0]), median(walls[1])
	rep.Serial = Wall{NS: serial.Nanoseconds(), ExecsPerSec: perSec(total, serial)}
	rep.Parallel = Wall{NS: parallel.Nanoseconds(), ExecsPerSec: perSec(total, parallel)}
	rep.Speedup = median(ratios)
	fmt.Fprintf(os.Stderr, "  %d campaigns: %.0f execs/s one at a time, %.0f execs/s %d at a time: %0.2fx on %d CPUs\n",
		len(jobs), rep.Serial.ExecsPerSec, rep.Parallel.ExecsPerSec, fleetK, rep.Speedup, rep.NumCPU)
	writeReport(outPath, &rep)

	if len(rep.Diverged) > 0 {
		fmt.Fprintf(os.Stderr, "bench: FINGERPRINT DIVERGENCE from solo runs under the fleet on: %s\n",
			strings.Join(rep.Diverged, ", "))
		benchExit(1)
	}
	if rep.GateApplied && rep.Speedup < fleetMinSpeedup {
		fmt.Fprintf(os.Stderr, "bench: fleet speedup %.2fx at K=%d is below %.1fx on a %d-CPU host\n",
			rep.Speedup, fleetK, fleetMinSpeedup, rep.NumCPU)
		benchExit(1)
	}
}

// median returns the middle element of xs (the upper one of the two
// middles for an even count).
func median[T time.Duration | float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
