// Command bench measures the campaign engine's execution throughput
// with the prefix-decided execution cache (core.Config.Cache) off,
// forced on, and in its adaptive default, and writes the results as
// the perf-trajectory file BENCH_pr5.json. It is the measured half of
// the cache's contract: the conformance kit proves the cache changes
// nothing about a campaign's output, this harness records what it
// does to wall-clock.
//
// Usage:
//
//	bench [-quick] [-subjects all] [-execs n] [-reps n] [-seed n]
//	      [-out BENCH_pr5.json] [-cpuprofile f] [-memprofile f]
//	bench -fleet-sweep [-quick] [-subjects all] [-execs n] [-reps n]
//	      [-seed n] [-out BENCH_fleet.json] [-cpuprofile f] [-memprofile f]
//
// The second form measures multicore scaling instead of the cache:
// two independent campaigns per subject, run one at a time and two at
// a time through the fleet orchestrator (fleet.go). It fails if any
// campaign's fingerprint differs from its standalone run, and, on a
// host with two or more CPUs, if the aggregate speedup is below 1.5x.
//
// -cpuprofile / -memprofile capture the whole bench run with
// runtime/pprof — the supported way to see where campaign time and
// steady-state retention actually go.
//
// For every subject of the matrix the harness runs the same serial
// campaign under the three cache modes (-reps repetitions, keeping
// each mode's best wall time) and reports two throughput levels:
//
//   - campaign: executions per second of the whole campaign — search
//     bookkeeping included — the end-to-end number;
//   - exec layer: executions per second of the execution layer alone
//     (subject runs, fact distillation, cache traffic; see
//     core.Result.ExecElapsed), which isolates the layer the cache
//     actually operates on from the engine's queue and scoring costs.
//
// Campaigns across modes must emit identical corpora: any
// fingerprint divergence makes bench exit non-zero, which is the CI
// gate against an unsound cache entry. The JSON also records each
// subject's hit rate and whether the adaptive mode retired the cache,
// so the trajectory file documents where the optimisation pays
// (saturating grammars reach near-total hit rates and 2-6x) and where
// the adaptive default steps aside.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
)

// Mode is one measured cache configuration.
type Mode struct {
	NS          int64   `json:"ns"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	ExecNS      int64   `json:"exec_layer_ns"`
	ExecPerSec  float64 `json:"exec_layer_execs_per_sec"`
}

// SubjectReport is one subject's row in the trajectory file.
type SubjectReport struct {
	Subject     string  `json:"subject"`
	Execs       int     `json:"execs"`
	Valids      int     `json:"valids"`
	Fingerprint string  `json:"fingerprint"`
	Match       bool    `json:"fingerprint_match"`
	HitRate     float64 `json:"cache_hit_rate"`
	Hits        int     `json:"cache_hits"`
	Misses      int     `json:"cache_misses"`
	AutoRetired bool    `json:"auto_retired"`

	Off  Mode `json:"cache_off"`
	On   Mode `json:"cache_on"`
	Auto Mode `json:"cache_auto"`

	CampaignSpeedupOn   float64 `json:"campaign_speedup_on"`
	CampaignSpeedupAuto float64 `json:"campaign_speedup_auto"`
	ExecLayerSpeedupOn  float64 `json:"exec_layer_speedup_on"`
}

// Report is the whole trajectory file.
type Report struct {
	Bench      string          `json:"bench"`
	Quick      bool            `json:"quick"`
	Execs      int             `json:"execs"`
	Reps       int             `json:"reps"`
	Seed       int64           `json:"seed"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Subjects   []SubjectReport `json:"subjects"`

	// CampaignGe13 / ExecLayerGe13 list the subjects whose cache-on
	// campaign (resp. exec-layer) throughput improved by at least 1.3x
	// over cache-off.
	CampaignGe13  []string `json:"campaign_speedup_ge_1.3"`
	ExecLayerGe13 []string `json:"exec_layer_speedup_ge_1.3"`
	Diverged      []string `json:"fingerprint_divergence,omitempty"`
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced budget and repetitions (CI smoke)")
		subjects = flag.String("subjects", "all", `comma-separated subjects, or "all"`)
		execs    = flag.Int("execs", 50000, "execution budget per campaign")
		reps     = flag.Int("reps", 3, "repetitions per mode; best wall time kept")
		seed     = flag.Int64("seed", 1, "campaign RNG seed")
		outPath  = flag.String("out", "BENCH_pr5.json", "output JSON path")
		fleet    = flag.Bool("fleet-sweep", false, "run two independent campaigns per subject one and two at a time; writes the fleet scaling report instead of the cache matrix")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole bench run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the final campaign) to this file")
	)
	flag.Parse()

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()

	if *quick {
		if !explicit("execs") {
			*execs = 12000
		}
		if !explicit("reps") {
			*reps = 2
		}
	}
	if *reps < 1 {
		*reps = 1
	}
	if *fleet && !explicit("out") {
		*outPath = "BENCH_fleet.json"
	}

	var entries []registry.Entry
	if strings.TrimSpace(*subjects) == "all" {
		entries = registry.All()
	} else {
		for _, name := range strings.Split(*subjects, ",") {
			e, ok := registry.Get(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown subject %q (have %s)\n", name, strings.Join(registry.Names(), ", "))
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}

	if *fleet {
		runFleetSweep(entries, *seed, *execs, *reps, *quick, *outPath)
		return
	}

	rep := Report{
		Bench:      "pfuzzer prefix-decided execution cache",
		Quick:      *quick,
		Execs:      *execs,
		Reps:       *reps,
		Seed:       *seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	for _, e := range entries {
		row := benchSubject(e, *seed, *execs, *reps)
		rep.Subjects = append(rep.Subjects, row)
		if !row.Match {
			rep.Diverged = append(rep.Diverged, row.Subject)
		}
		if row.CampaignSpeedupOn >= 1.3 {
			rep.CampaignGe13 = append(rep.CampaignGe13, row.Subject)
		}
		if row.ExecLayerSpeedupOn >= 1.3 {
			rep.ExecLayerGe13 = append(rep.ExecLayerGe13, row.Subject)
		}
		fmt.Fprintf(os.Stderr, "  %-8s hit=%5.1f%%  campaign %0.2fx (auto %0.2fx)  exec-layer %0.2fx%s\n",
			row.Subject, 100*row.HitRate, row.CampaignSpeedupOn, row.CampaignSpeedupAuto,
			row.ExecLayerSpeedupOn, retiredTag(row))
	}

	writeReport(*outPath, &rep)

	if len(rep.Diverged) > 0 {
		fmt.Fprintf(os.Stderr, "bench: FINGERPRINT DIVERGENCE with cache enabled on: %s\n",
			strings.Join(rep.Diverged, ", "))
		benchExit(1)
	}
}

// writeReport writes rep as indented JSON to path, exiting non-zero
// on failure.
func writeReport(path string, rep any) {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		benchExit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		benchExit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func retiredTag(r SubjectReport) string {
	if r.AutoRetired {
		return "  [auto retired]"
	}
	return ""
}

func explicit(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// run executes one campaign and returns its result plus wall time.
func run(e registry.Entry, cfg core.Config) (*core.Result, time.Duration) {
	t0 := time.Now()
	res := core.New(e.New(), cfg).Run()
	return res, time.Since(t0)
}

// benchSubject measures one subject under the three cache modes. The
// modes are interleaved across repetitions so drift on a shared box
// hits all three alike, and each mode keeps its best time.
func benchSubject(e registry.Entry, seed int64, execs, reps int) SubjectReport {
	base := core.Config{Seed: seed, MaxExecs: execs}
	modes := []core.CacheMode{core.CacheOff, core.CacheOn, core.CacheAuto}
	best := make([]time.Duration, len(modes))
	bestExec := make([]time.Duration, len(modes))
	results := make([]*core.Result, len(modes))

	for r := 0; r < reps; r++ {
		for i, m := range modes {
			cfg := base
			cfg.Cache = m
			res, d := run(e, cfg)
			if results[i] == nil || d < best[i] {
				best[i] = d
				bestExec[i] = res.ExecElapsed
				results[i] = res
			}
		}
	}

	off, on, auto := results[0], results[1], results[2]
	row := SubjectReport{
		Subject:     e.Name,
		Execs:       on.Execs,
		Valids:      len(on.Valids),
		Fingerprint: fmt.Sprintf("%#x", on.Fingerprint()),
		Match:       on.Fingerprint() == off.Fingerprint() && auto.Fingerprint() == off.Fingerprint(),
		HitRate:     on.CacheHitRate(),
		Hits:        on.CacheHits,
		Misses:      on.CacheMisses,
		AutoRetired: auto.CacheRetired,
		Off:         mode(off.Execs, best[0], bestExec[0]),
		On:          mode(on.Execs, best[1], bestExec[1]),
		Auto:        mode(auto.Execs, best[2], bestExec[2]),
	}
	row.CampaignSpeedupOn = ratio(best[0], best[1])
	row.CampaignSpeedupAuto = ratio(best[0], best[2])
	row.ExecLayerSpeedupOn = ratio(bestExec[0], bestExec[1])
	return row
}

func mode(execs int, wall, exec time.Duration) Mode {
	return Mode{
		NS:          wall.Nanoseconds(),
		ExecsPerSec: perSec(execs, wall),
		ExecNS:      exec.Nanoseconds(),
		ExecPerSec:  perSec(execs, exec),
	}
}

func perSec(execs int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(execs) / d.Seconds()
}

func ratio(off, on time.Duration) float64 {
	if on <= 0 {
		return 0
	}
	return float64(off) / float64(on)
}
