// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads from one process through the repository's own
// packages and prints every metric by name with its unit:
//
//	search   in-memory campaigns (engine, subjects, prefix cache)
//	journal  journaled campaigns, the pfuzzer -out path (snapshots, corpus store)
//	fleet    an in-process pfuzzerd behind a loopback listener, driven over HTTP
//
// Usage:
//
//	perfbench -workload search|journal|fleet [-seed n] [-seconds s] [-trace 0|1] [-steady k]
//
// Every campaign is execution-bounded and seeded from -seed, so a seed
// fixes the work of a run bit for bit and only time varies; -seconds
// sizes that work. With -trace 0 the run prints the end-to-end metrics,
// with -trace 1 the per-layer metrics of a traced run (see METRICS.md).
// The last line of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// -steady k re-runs the workload k times with seeds seed..seed+k-1 and
// prints each metric's median, quartiles and (max-min)/median.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in
// report order. Every workload reports every one of them; a per-layer
// metric of a layer the workload never calls reads 0 (METRICS.md says
// which).
var endToEnd = []spec{
	{"execs_per_s", "1/s"},
	{"setup_s", "s"},
	{"resume_s", "s"},
	{"peak_rss_mb", "MB"},
	{"state_mb", "MB"},
}

var perLayer = []spec{
	{"core.step_s", "s"},
	{"core.self_s", "s"},
	{"core.event_sink_s", "s"},
	{"core.allocs_per_exec", "count"},
	{"core.alloc_bytes_per_exec", "B"},
	{"runtime.gc_cpu_s", "s"},
	{"subjects.run_s", "s"},
	{"subjects.runs", "count"},
	{"pcache.hits", "count"},
	{"pcache.misses", "count"},
	{"pcache.hit_ratio", "1"},
	{"core.snapshot_build_s", "s"},
	{"core.snapshot_encode_s", "s"},
	{"core.snapshot_bytes", "B"},
	{"core.snapshot_decode_s", "s"},
	{"core.restore_s", "s"},
	{"corpus.create_s", "s"},
	{"corpus.append_valid_s", "s"},
	{"corpus.append_snapshot_s", "s"},
	{"corpus.append_snapshot_s_p50", "s"},
	{"corpus.snapshot_file_bytes", "B"},
	{"corpus.close_s", "s"},
	{"corpus.open_s", "s"},
	{"campaign.engine_busy_ratio", "1"},
	{"campaign.queue_depth_mean", "count"},
	{"daemon.new_s", "s"},
	{"daemon.close_s", "s"},
	{"daemon.submit_s_p50", "s"},
	{"daemon.status_s_p50", "s"},
	{"daemon.status_s_p95", "s"},
	{"daemon.metrics_s_p50", "s"},
	{"daemon.metrics_s_p95", "s"},
	{"daemon.api_s_p50", "s"},
	{"daemon.api_s_p95", "s"},
	{"daemon.api_samples", "count"},
	{"shim.active_s_per_exec", "s"},
	{"shim.inproc_s_per_exec", "s"},
	{"trace.span_coverage", "1"},
	{"trace.overhead_ratio", "1"},
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"search":  runSearch,
	"journal": runJournal,
	"fleet":   runFleet,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "search, journal or fleet")
	var seed seedFlag = 1
	fs.Var(&seed, "seed", "workload seed, any integer (taken modulo 2^64): fixes every campaign of the run")
	seconds := fs.Int("seconds", 20, "measuring time the run's fixed work is sized to")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics of a traced run")
	steady := fs.Int("steady", 0, "run the workload k times (seeds seed..seed+k-1) and print each metric's spread")
	out := fs.String("out", ".bench_build", "directory for run state, trace dumps and built tools")
	pshim := fs.String("pshim", "", "pshim binary for the fleet's shim tenant (required by -workload fleet)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload search|journal|fleet, -seconds >= 1, -trace 0|1")
		return 2
	}
	if *steady > 0 {
		return steadiness(stdout, *steady, int64(seed), args)
	}
	if *workload == "fleet" && *pshim == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -workload fleet needs -pshim")
		return 2
	}
	dir, err := os.MkdirTemp(mustAbs(*out), "state-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup of run state
	b := &bench{
		workload: *workload, seed: int64(seed), seconds: *seconds, traced: *traced == 1,
		dir: dir, pshim: *pshim, out: stdout,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	b.env = environment(dir)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, int64(seed), *seconds, *traced)
	fmt.Fprintf(stdout, "env num_cpu=%s gomaxprocs=%s go=%s state_fs=%s\n",
		b.env["num_cpu"], b.env["gomaxprocs"], b.env["go"], b.env["state_fs"])
	if err := drive(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		path := filepath.Join(mustAbs(*out), fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, int64(seed)))
		if err := b.rec.dump(path, b.env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	return b.report()
}

// seedFlag is the -seed flag. It takes any integer, negative or beyond
// int64, and keeps its low 64 bits, so every seed a caller may pass
// names one fixed run.
type seedFlag int64

func (s *seedFlag) String() string { return fmt.Sprint(int64(*s)) }

func (s *seedFlag) Set(v string) error {
	n, ok := new(big.Int).SetString(strings.TrimSpace(v), 10)
	if !ok {
		return fmt.Errorf("seed %q is not an integer", v)
	}
	*s = seedFlag(int64(new(big.Int).And(n, new(big.Int).SetUint64(math.MaxUint64)).Uint64()))
	return nil
}

// bench is one run's shared state: its parameters, the operation
// tally and the metrics its workload fills in.
type bench struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	dir      string // run state; removed when the run ends
	pshim    string
	out      io.Writer
	env      map[string]string

	rec   *recorder // the traced half's spans (nil until a traced run starts)
	ops   ops
	e2e   map[string]float64
	layer map[string]float64
	notes []string // human-only lines (api latency, failed_ops_ratio)
}

// ops tallies checked operations: a failed operation is an error
// returned by the system or an output check that did not hold.
type ops struct {
	attempted, failed int
	errs              []string
}

// check counts one operation and records why it failed, if it did.
func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// try counts one operation that failed if err is non-nil.
func (o *ops) try(err error, what string) bool {
	o.check(err == nil, "%s: %v", what, err)
	return err == nil
}

// note adds a human-readable line to the report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// report prints the human-readable table and the JSON verdict line.
func (b *bench) report() int {
	want, got := endToEnd, b.e2e
	if b.traced {
		want, got = perLayer, b.layer
	}
	res := result{Metrics: map[string]metric{}}
	for _, s := range want {
		v, ok := got[s.name]
		if !ok && !b.traced {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", b.workload, s.name)
			return 1
		}
		m := metric{Value: v, Unit: s.unit}
		if err := checkMetric(s.name, m); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res.Metrics[s.name] = m
		fmt.Fprintf(b.out, "  %-30s %14.6g %s\n", s.name, v, s.unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(b.out, "  %s\n", n)
	}
	ratio := 0.0
	if b.ops.attempted > 0 {
		ratio = float64(b.ops.failed) / float64(b.ops.attempted)
	}
	fmt.Fprintf(b.out, "  %-30s %14.6g 1 (%d failed / %d attempted)\n", "failed_ops_ratio", ratio, b.ops.failed, b.ops.attempted)
	for _, e := range b.ops.errs {
		fmt.Fprintf(b.out, "  FAILED: %s\n", e)
	}
	res.Attempted, res.Failed = b.ops.attempted, b.ops.failed
	res.Correct = b.ops.failed == 0 && b.ops.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	return 0
}

// environment records what the numbers depend on.
func environment(stateDir string) map[string]string {
	return map[string]string{
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"state_fs":   fsType(stateDir),
	}
}

// fsType names the filesystem holding dir (statfs magic numbers).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// peak resident set counter (VmHWM), so peakRSSMB measures from here.
// Where the reset is refused the counter keeps the process-wide peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// peakRSSMB is the peak resident set since the last resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mustAbs(p string) string {
	if err := os.MkdirAll(p, 0o755); err != nil {
		return p
	}
	if a, err := filepath.Abs(p); err == nil {
		return a
	}
	return p
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
