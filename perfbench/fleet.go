package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pfuzzer/internal/corpus"
	"pfuzzer/internal/daemon"
)

// The fleet workload: an in-process pfuzzerd (daemon.New behind a
// real loopback listener, Workers = NumCPU) fed by one closed-loop
// client over HTTP. It is the only workload that exercises the worker
// pool, the daemon API, spec handling, restart and the shim, and it is
// the only multi-core one.

// fleetJob is one campaign of the submission mix.
type fleetJob struct {
	tenant, subject string
	execs           int
	shim            bool // run the subject through pshim
	twin            int  // mix index of the in-process campaign with the same subject and seed, or -1
}

// fleetWave is one wave of the submission mix, in order: the shim
// campaign first (the longest, so it never forms the tail), then
// journal-heavy subjects (cjson, tinyc, mjs), cheap cache-saturating
// ones (csv, ini), and last expr in process with the shim campaign's
// seed, so the two differ only by the shim.
var fleetWave = []fleetJob{
	{"dave", "expr", 30000, true, 6},
	{"alice", "cjson", 40000, false, -1},
	{"bob", "csv", 100000, false, -1},
	{"carol", "mjs", 30000, false, -1},
	{"alice", "tinyc", 40000, false, -1},
	{"bob", "ini", 100000, false, -1},
	{"carol", "expr", 30000, false, -1},
}

// fleetWaves is the run's mix: one wave per 5 seconds of -seconds,
// each with its own seeds, twins indexed into the flattened mix. A
// wave holds one copy of fleetWave per two workers, so the client's
// fleetInFlight campaigns keep a pool of any size saturated.
func fleetWaves(seconds, workers int) [][]fleetJob {
	copies := max(1, (workers+1)/2)
	var waves [][]fleetJob
	for w := 0; w < max(1, seconds/5); w++ {
		var wave []fleetJob
		for c := 0; c < copies; c++ {
			base := (w*copies + c) * len(fleetWave)
			for _, j := range fleetWave {
				if j.twin >= 0 {
					j.twin += base
				}
				wave = append(wave, j)
			}
		}
		waves = append(waves, wave)
	}
	return waves
}

// fleetInFlight is the number of campaigns the closed loop keeps
// submitted: two per worker, so a worker whose campaign retires finds
// the next one queued.
func fleetInFlight(workers int) int { return 2 * workers }

const (
	fleetPoll       = 25 * time.Millisecond // status and /metrics polling interval
	fleetSetups     = 15                    // set-up repeats before and after the main phase
	fleetSetupExecs = 2000                  // budget of a set-up probe campaign
)

// fleetRestarts are the shares of the mix's total budget at which the
// client restarts the daemon (Close, then New over the parked root).
var fleetRestarts = []float64{0.3, 0.55, 0.8}

// The resume probe: New over a copy of one parked root, repeated
// through the run. Restarts of the busy fleet park whatever happens to
// be in flight at whatever progress, so their New times measure the
// timing of the restart more than the resume path.
const (
	fleetParkSlice = 10000 // executions each probe campaign has run when parked
	fleetProbes    = 2     // resume probes before and after the main phase (plus one per restart)
)

// fleetParked are a parked root's in-flight campaigns, one per subject
// of the wave whose state is more than a few kilobytes, so decoding
// snapshots dominates the resume.
var fleetParked = []string{"cjson", "tinyc", "mjs", "expr"}

// daemonProc is one daemon life: server, HTTP listener, client.
type daemonProc struct {
	srv  *daemon.Server
	http *http.Server
	done chan error
	base string
	cl   *http.Client
}

// fleetRun is the client's view of one run.
type fleetRun struct {
	b       *bench
	parked  string // the parked root every resume probe copies
	cfg     daemon.Config
	rec     *recorder
	submits []float64
	status  []float64
	metrics []float64
	depth   []float64
}

func runFleet(b *bench) error {
	if b.traced {
		b.rec = newRecorder()
		res, err := fleetOnce(b, b.rec)
		if err != nil {
			return err
		}
		res.layers(b)
		// The fleet's spans are all client-side (HTTP calls, daemon
		// lives) and wrap no engine call, so tracing adds no work to
		// the pool; a measured ratio would only show run-to-run noise.
		b.layer["trace.overhead_ratio"] = 1
		b.layer["trace.span_coverage"] = coverage(b.rec, "fleet.run", "fleet.phase")
		return nil
	}
	res, err := fleetOnce(b, nil)
	if err != nil {
		return err
	}
	b.e2e["execs_per_s"] = res.execsPerS
	b.e2e["setup_s"] = median(res.setups)
	b.e2e["resume_s"] = median(res.resumes)
	b.e2e["state_mb"] = float64(res.stateBytes) / 1e6
	b.e2e["peak_rss_mb"] = res.peakMB
	p50, p95, n := res.api()
	b.note("api_s_p50 %.6g s, api_s_p95 %.6g s over %d status and /metrics requests", p50, p95, n)
	b.note("fleet: %d execs in %.3fs stepping, %d set-ups, %d restarts", res.execs, res.phase.Seconds(), len(res.setups), len(res.news))
	return nil
}

// fleetResult is what one fleet pass measured.
type fleetResult struct {
	*fleetRun
	execs      int
	phase      time.Duration // stepping phase: first submission to last retirement, restarts excluded
	execsPerS  float64
	setups     []float64
	resumes    []float64 // resume probes
	closes     []float64 // daemon.Close at each restart
	news       []float64 // daemon.New at each restart
	elapsedMS  int64     // Σ campaign active engine time
	shimPer    float64
	inprocPer  float64
	stateBytes int64
	peakMB     float64 // peak resident set of the main phase
}

func (r *fleetResult) api() (p50, p95 float64, n int) {
	all := append(append([]float64(nil), r.status...), r.metrics...)
	p50 = median(all)
	p95, err := tailPercentile(all, 0.95)
	if err != nil {
		r.b.note("api_s_p95 not reported: %v", err)
	}
	return p50, p95, len(all)
}

// layers fills the per-layer metrics a fleet pass observes from the
// client side: the daemon API, the pool (through Status and /metrics)
// and the shim. The engine layers run inside the daemon where the
// benchmark's wrappers cannot reach, except core.step_s, which is the
// daemon's own active engine time.
func (r *fleetResult) layers(b *bench) {
	L := b.layer
	L["core.step_s"] = float64(r.elapsedMS) / 1000
	L["campaign.engine_busy_ratio"] = float64(r.elapsedMS) / 1000 / (float64(r.cfg.Workers) * r.phase.Seconds())
	L["campaign.queue_depth_mean"] = mean(r.depth)
	L["daemon.new_s"] = median(r.news)
	L["daemon.close_s"] = median(r.closes)
	L["daemon.submit_s_p50"] = median(r.submits)
	L["daemon.status_s_p50"] = median(r.status)
	L["daemon.metrics_s_p50"] = median(r.metrics)
	for _, p := range []struct {
		name string
		xs   []float64
	}{{"daemon.status_s_p95", r.status}, {"daemon.metrics_s_p95", r.metrics}} {
		if v, err := tailPercentile(p.xs, 0.95); err == nil {
			L[p.name] = v
		} else {
			b.note("%s not reported: %v", p.name, err)
		}
	}
	p50, p95, n := r.api()
	L["daemon.api_s_p50"], L["daemon.api_s_p95"], L["daemon.api_samples"] = p50, p95, float64(n)
	L["shim.active_s_per_exec"] = r.shimPer
	L["shim.inproc_s_per_exec"] = r.inprocPer
}

// fleetOnce parks the resume probe's root, runs set-up and resume
// probes, the main closed-loop phase with its restarts (each followed
// by one probe of each kind), more probes, and the output checks.
func fleetOnce(b *bench, rec *recorder) (*fleetResult, error) {
	root := filepath.Join(b.dir, "main")
	fr := &fleetRun{b: b, rec: rec, parked: filepath.Join(b.dir, "parked"), cfg: daemon.Config{
		Root: root, Workers: runtime.NumCPU(), AllowShims: []string{b.pshim}, Log: io.Discard,
	}}
	res := &fleetResult{fleetRun: fr}
	endRun := rec.begin("fleet.run")
	defer endRun()
	if err := fr.freeze(); err != nil {
		return nil, err
	}
	probes := func(k string) error {
		for i := 0; i < fleetSetups; i++ {
			if err := fr.setupProbe(res, filepath.Join(b.dir, fmt.Sprintf("setup-%s%d", k, i))); err != nil {
				return err
			}
		}
		for i := 0; i < fleetProbes; i++ {
			if err := fr.resumeProbe(res); err != nil {
				return err
			}
		}
		return nil
	}
	if err := probes("a"); err != nil {
		return nil, err
	}
	resetPeakRSS()
	if err := fr.mainPhase(res, root); err != nil {
		return nil, err
	}
	res.peakMB = peakRSSMB()
	if err := probes("b"); err != nil {
		return nil, err
	}
	return res, nil
}

// start brings up a daemon life over root and serves it on a fresh
// loopback listener.
func (fr *fleetRun) start(root string) (*daemonProc, error) {
	cfg := fr.cfg
	cfg.Root = root
	end := fr.rec.begin("daemon.new")
	srv, err := daemon.New(cfg)
	end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close() //nolint:errcheck // already failing
		return nil, err
	}
	p := &daemonProc{
		srv: srv, http: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String(), cl: &http.Client{Timeout: 60 * time.Second},
	}
	go func() { p.done <- p.http.Serve(ln) }()
	return p, nil
}

// stop ends a daemon life: the HTTP server drains, then the daemon
// parks every live campaign with a final snapshot.
func (fr *fleetRun) stop(p *daemonProc) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := p.http.Shutdown(ctx)
	if err := <-p.done; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	p.cl.CloseIdleConnections()
	end := fr.rec.begin("daemon.close")
	derr := p.srv.Close()
	end()
	return errors.Join(herr, derr)
}

// call makes one API request, counts it as an operation (non-2xx is a
// failure), records its latency and decodes a JSON body into out.
func (fr *fleetRun) call(p *daemonProc, method, path string, body any, out any, lat *[]float64, span string) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, p.base+path, rd)
	if err != nil {
		return err
	}
	end := fr.rec.begin(span)
	t0 := time.Now()
	resp, err := p.cl.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
	}
	d := time.Since(t0)
	end()
	if !fr.b.ops.try(err, method+" "+path) {
		return err
	}
	*lat = append(*lat, d.Seconds())
	if out == nil {
		return nil
	}
	if sb, ok := out.(*string); ok {
		*sb = string(data)
		return nil
	}
	return json.Unmarshal(data, out)
}

// setupProbe measures set-up: daemon.New on an empty root until the
// first submission is accepted over HTTP.
func (fr *fleetRun) setupProbe(res *fleetResult, root string) error {
	// Set-up waits on fsync, and on ext4 an fsync also waits for other
	// files' dirty data: write back what the run wrote before first.
	syscall.Sync()
	t0 := time.Now()
	p, err := fr.start(root)
	if err != nil {
		return err
	}
	var st daemon.Status
	sub := daemon.Submission{Tenant: "probe", Subject: "csv", Seed: 1, MaxExecs: fleetSetupExecs}
	err = fr.call(p, "POST", "/campaigns", sub, &st, &fr.submits, "daemon.submit")
	if err == nil {
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	err = errors.Join(err, fr.stop(p))
	return errors.Join(err, os.RemoveAll(root))
}

// freeze builds the parked root the resume probes copy. A daemon with
// one worker steps its campaigns in strict round-robin, one slice of
// fleetParkSlice each. Once the last campaign has finished its first
// slice, the worker is in the first campaign's second slice, which
// takes tens of milliseconds and which Close lets finish. So the first
// campaign is parked after two slices and every other after one, the
// same state on every run of a seed. The order breaks if the first
// campaign finishes its slice before the last is queued (a submission
// waits on fsync, which can stall for longer than a slice) or if the
// machine stalls the polling for longer than a slice; such a root is
// rebuilt, and one still wrong after the last try is a failed
// operation, since every resume probe would time other state.
func (fr *fleetRun) freeze() error {
	const tries = 3
	for try := 1; ; try++ {
		exact, got, err := fr.park()
		if err != nil {
			return err
		}
		if exact || try == tries {
			fr.b.ops.check(exact, "resume probe root: campaigns parked at %v executions, not after 2, 1, 1, 1 slices", got)
			return nil
		}
	}
}

// park is one attempt of freeze: it reports whether the root came out
// as intended, and the executions each campaign was parked at.
func (fr *fleetRun) park() (bool, []int, error) {
	if err := os.RemoveAll(fr.parked); err != nil {
		return false, nil, err
	}
	cfg := fr.cfg
	cfg.Root, cfg.Workers, cfg.Slice = fr.parked, 1, fleetParkSlice
	srv, err := daemon.New(cfg)
	if err != nil {
		return false, nil, err
	}
	status := func() map[string]daemon.Status {
		m := map[string]daemon.Status{}
		for _, st := range srv.Campaigns() {
			m[st.ID] = st
		}
		return m
	}
	ids := make([]string, len(fleetParked))
	for i, subj := range fleetParked {
		// The root does not depend on the run's seed, so every run's
		// probes time one fixed state and only the machine varies.
		sub := daemon.Submission{Tenant: "probe", Subject: subj, Seed: campaignSeed(0, 1, i), MaxExecs: 4 * fleetParkSlice}
		st, err := srv.Submit(sub)
		if err != nil {
			return false, nil, errors.Join(err, srv.Close())
		}
		ids[i] = st.ID
	}
	// A campaign's status shows its executions once a slice is done.
	queued := status()[ids[0]].Execs == 0
	last := ids[len(ids)-1]
	for deadline := time.Now().Add(time.Minute); queued && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := status()[last]; st.Execs >= fleetParkSlice || st.State != daemon.StateRunning {
			break
		}
	}
	// The worker pops the first campaign again microseconds after the
	// last one's status is published; give it that before stopping it.
	time.Sleep(5 * time.Millisecond)
	if err := srv.Close(); err != nil {
		return false, nil, err
	}
	st := status()
	exact, got := queued, make([]int, len(ids))
	for i, id := range ids {
		// A slice may overshoot by an input and its extensions, so k
		// slices end in [k*slice, (k+1)*slice).
		k := 1
		if i == 0 {
			k = 2
		}
		got[i] = st[id].Execs
		exact = exact && st[id].State == daemon.StateRunning && got[i] >= k*fleetParkSlice && got[i] < (k+1)*fleetParkSlice
	}
	return exact, got, nil
}

// resumeProbe measures resume on a fresh copy of the parked root:
// daemon.New until every parked campaign is re-queued, which New does
// before it returns.
func (fr *fleetRun) resumeProbe(res *fleetResult) error {
	root := fr.parked + "-probe"
	if err := copyDir(fr.parked, root); err != nil {
		return err
	}
	syscall.Sync() // the copy's write-back is not part of the resume
	cfg := fr.cfg
	// New re-queues each campaign as soon as it is restored, and the
	// pool starts stepping it while the next one is restored. One worker
	// leaves New a core of its own; with a worker per core, the probe
	// timed CPU contention as much as the resume path. One-execution
	// slices keep the Close after the probe short: the pool's in-flight
	// slice finishes at once and the park is all it does.
	cfg.Root, cfg.Workers, cfg.Slice = root, 1, 1
	end := fr.rec.begin("daemon.resume")
	t0 := time.Now()
	srv, err := daemon.New(cfg)
	d := time.Since(t0)
	end()
	if !fr.b.ops.try(err, "daemon resume") {
		return err
	}
	// A resume that fails marks its campaign failed; one that succeeds
	// leaves it running, or done if its engine was out of work anyway.
	resumed := 0
	for _, st := range srv.Campaigns() {
		if st.State == daemon.StateRunning || st.State == daemon.StateDone {
			resumed++
		}
	}
	fr.b.ops.check(resumed == len(fleetParked), "resume probe: %d of %d parked campaigns resumed", resumed, len(fleetParked))
	res.resumes = append(res.resumes, d.Seconds())
	return errors.Join(srv.Close(), os.RemoveAll(root))
}

// mainPhase is the closed loop: wave by wave, keep fleetInFlight of
// the wave's campaigns submitted, poll their status and /metrics every
// fleetPoll, restart the daemon at each fleetRestarts share of the
// budget, and run the wave to completion before the next one starts.
// execs_per_s is taken over the waves' saturated stretches.
func (fr *fleetRun) mainPhase(res *fleetResult, root string) error {
	b := fr.b
	var mix []fleetJob
	var waveEnd []int // mix index one past each wave
	for _, w := range fleetWaves(b.seconds, fr.cfg.Workers) {
		mix = append(mix, w...)
		waveEnd = append(waveEnd, len(mix))
	}
	total := 0
	for _, j := range mix {
		total += j.execs
	}
	p, err := fr.start(root)
	if err != nil {
		return err
	}
	ids := make([]string, len(mix))
	final := make([]daemon.Status, len(mix))
	next, live, restart, wave := 0, map[int]bool{}, 0, 0
	var satExecs int          // executions of the waves' saturated stretches
	var satTime time.Duration // their wall time
	inFlight := fleetInFlight(fr.cfg.Workers)
	var waveStart time.Duration // phase clock at the wave's first submission
	saturated := true
	endPhase := fr.rec.begin("fleet.phase")
	t0 := time.Now()
	now := func() time.Duration { return res.phase + time.Since(t0) }
	for next < len(mix) || len(live) > 0 {
		if next == waveEnd[wave] && len(live) == 0 {
			wave++
			saturated = true
		}
		first := 0
		if wave > 0 {
			first = waveEnd[wave-1]
		}
		for next < waveEnd[wave] && len(live) < inFlight {
			j := mix[next]
			seed := campaignSeed(b.seed, 0, next)
			if j.twin >= 0 {
				seed = campaignSeed(b.seed, 0, j.twin)
			}
			sub := daemon.Submission{Tenant: j.tenant, Subject: j.subject, Seed: seed, MaxExecs: j.execs}
			if j.shim {
				sub.Shim = []string{b.pshim}
			}
			if next == first {
				waveStart = now()
			}
			var st daemon.Status
			if err := fr.call(p, "POST", "/campaigns", sub, &st, &fr.submits, "daemon.submit"); err != nil {
				return errors.Join(err, fr.stop(p))
			}
			ids[next] = st.ID
			live[next] = true
			next++
		}
		time.Sleep(fleetPoll)
		spent, waveExecs := 0, 0
		for i := range mix {
			if live[i] {
				var st daemon.Status
				if err := fr.call(p, "GET", "/campaigns/"+ids[i], nil, &st, &fr.status, "daemon.status"); err != nil {
					return errors.Join(err, fr.stop(p))
				}
				if st.State != daemon.StateRunning {
					delete(live, i)
				}
				final[i] = st
			}
			spent += final[i].Execs
			if i >= first && i < waveEnd[wave] {
				waveExecs += final[i].Execs
			}
		}
		var text string
		if err := fr.call(p, "GET", "/metrics", nil, &text, &fr.metrics, "daemon.metrics"); err != nil {
			return errors.Join(err, fr.stop(p))
		}
		if d, ok := gauge(text, "pfuzzerd_queue_depth"); ok {
			fr.depth = append(fr.depth, d)
		}
		if saturated && next == waveEnd[wave] && len(live) < fr.cfg.Workers {
			// The pool just stopped being saturated: the wave's tail runs
			// on fewer workers than the pool has, and how long it lasts
			// depends on which campaign happens to finish last.
			saturated = false
			satExecs += waveExecs
			satTime += now() - waveStart
		}
		if restart < len(fleetRestarts) && float64(spent) >= fleetRestarts[restart]*float64(total) && len(live) > 0 {
			restart++
			res.phase += time.Since(t0)
			endPhase()
			t1 := time.Now()
			if err := fr.stop(p); !b.ops.try(err, "daemon close") {
				return err
			}
			res.closes = append(res.closes, time.Since(t1).Seconds())
			// Set-up and resume are probed while the machine is idle
			// between lives, so their samples span the whole run.
			if err := fr.setupProbe(res, root+fmt.Sprintf("-setup-r%d", restart)); err != nil {
				return err
			}
			if err := fr.resumeProbe(res); err != nil {
				return err
			}
			t1 = time.Now()
			if p, err = fr.start(root); !b.ops.try(err, "daemon restart") {
				return err
			}
			res.news = append(res.news, time.Since(t1).Seconds())
			endPhase = fr.rec.begin("fleet.phase")
			t0 = time.Now()
		}
	}
	res.phase += time.Since(t0)
	endPhase()
	res.execsPerS = float64(satExecs) / satTime.Seconds()
	if err := fr.stop(p); !b.ops.try(err, "daemon close") {
		return err
	}
	return fr.verify(res, root, mix, ids, final)
}

// verify checks every campaign ended done with its budget spent, and
// that the shim campaign's journal holds exactly its in-process twin's
// corpus; it also totals the run's executions and state on disk.
func (fr *fleetRun) verify(res *fleetResult, root string, mix []fleetJob, ids []string, final []daemon.Status) error {
	b := fr.b
	var shimMS, twinMS int64
	var shimExecs, twinExecs int
	for i, st := range final {
		b.ops.check(st.State == daemon.StateDone && st.Execs >= mix[i].execs,
			"fleet %s (%s/%s): state %s at %d/%d execs %s", ids[i], mix[i].tenant, mix[i].subject, st.State, st.Execs, mix[i].execs, st.Error)
		res.execs += st.Execs
		res.elapsedMS += st.ElapsedMS
		if j := mix[i]; j.shim && j.twin >= 0 {
			tw := final[j.twin]
			shimMS, shimExecs = shimMS+st.ElapsedMS, shimExecs+st.Execs
			twinMS, twinExecs = twinMS+tw.ElapsedMS, twinExecs+tw.Execs
			a, err1 := journalInputs(filepath.Join(root, ids[i]))
			c, err2 := journalInputs(filepath.Join(root, ids[j.twin]))
			if b.ops.try(errors.Join(err1, err2), "fleet journal reopen") {
				b.ops.check(a == c && a != "", "fleet %s: shim corpus differs from its in-process twin %s", ids[i], ids[j.twin])
			}
		}
	}
	res.shimPer = float64(shimMS) / 1000 / float64(max(shimExecs, 1))
	res.inprocPer = float64(twinMS) / 1000 / float64(max(twinExecs, 1))
	n, err := dirBytes(root)
	res.stateBytes = n
	return err
}

// journalInputs reopens a settled campaign's journal and returns its
// corpus as one comparable string.
func journalInputs(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return "", err
	}
	for _, m := range matches {
		if _, err := os.Stat(corpus.SnapPath(m)); err != nil {
			continue
		}
		st, err := corpus.Open(m)
		if err != nil {
			return "", err
		}
		defer st.Close() //nolint:errcheck // read-only reopen
		var sb strings.Builder
		for _, in := range st.ValidInputs() {
			fmt.Fprintf(&sb, "%q\n", in)
		}
		return sb.String(), nil
	}
	return "", fmt.Errorf("no journal with a snapshot in %s", dir)
}

// copyDir copies the regular files of the tree src into a new tree dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// gauge reads one unlabelled sample from a Prometheus text exposition.
func gauge(text, name string) (float64, bool) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}
