// Command pfuzzerd is the fuzzing-as-a-service daemon: a long-running
// HTTP server multiplexing many tenant campaigns over one shared
// worker pool, with per-campaign durable corpora and per-tenant
// execution budgets (DESIGN.md §15).
//
// Usage:
//
//	pfuzzerd -root state/ [-addr 127.0.0.1:7997] [-fleet-workers 4] [-slice n]
//	         [-snap-every n] [-tenant-budget n] [-allow-shim path]...
//
// Trust model: the API has no authentication, so whoever can reach it
// controls the daemon. The listener therefore defaults to loopback;
// binding a non-loopback -addr hands campaign control to every
// network peer and must only be done on a trusted network. The
// submission's shim field is an argv the daemon executes, so it is
// rejected unless its binary is allowlisted with -allow-shim
// (repeatable, one binary path per flag) — with no -allow-shim flags,
// shim submissions are refused outright.
//
// API (JSON over HTTP):
//
//	POST /campaigns              submit: {"subject":"cjson","tenant":"acme","execs":200000,...}
//	GET  /campaigns              list all campaigns
//	GET  /campaigns/{id}         one campaign's status
//	POST /campaigns/{id}/cancel  stop a campaign at its next slice boundary
//	GET  /campaigns/{id}/events  live SSE event stream (valids, phases, cache)
//	GET  /metrics                Prometheus text metrics
//	GET  /healthz                liveness probe
//
// Every campaign journals its corpus under -root/<id>/ as it runs and
// snapshots its engine every -snap-every executions, so a daemon
// killed at any point — kill -9 included — restarts with the same
// -root and resumes every in-flight campaign from its last snapshot.
// Campaign engines are deterministic under their seed, and the
// journal deduplicates by input, so a resumed campaign's corpus
// converges to exactly what an uninterrupted run would have produced.
//
// SIGINT or SIGTERM shuts down gracefully: in-flight step slices
// finish, every live campaign cuts a final snapshot and closes its
// journal with its spec left running (the next start resumes it), and
// the HTTP listener drains. A second signal forces immediate exit
// through the same cleanup stack.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"pfuzzer/internal/daemon"
)

func main() {
	var (
		root         = flag.String("root", "", "state directory: one subdirectory per campaign (required)")
		addr         = flag.String("addr", "127.0.0.1:7997", "HTTP listen address; the API is unauthenticated, bind beyond loopback only on a trusted network")
		fleetWorkers = flag.Int("fleet-workers", 4, "fleet worker count: campaigns advanced concurrently")
		slice        = flag.Int("slice", 0, "per-step execution slice (0 = fleet default); smaller interleaves tenants more fairly")
		snapEvery    = flag.Int("snap-every", 10000, "default executions between journal snapshots (campaigns can override)")
		tenantBudget = flag.Int("tenant-budget", 0, "default total execution budget per tenant across its campaigns (0 = unlimited)")
		allowShims   []string
	)
	flag.Func("allow-shim", "shim binary `path` submissions may execute (repeatable; none = shim submissions rejected)", func(v string) error {
		allowShims = append(allowShims, v)
		return nil
	})
	flag.Parse()
	if *root == "" {
		fail("-root is required")
	}
	if flag.NArg() != 0 {
		fail("unexpected arguments")
	}

	trapSignals()

	srv, err := daemon.New(daemon.Config{
		Root: *root, Workers: *fleetWorkers, Slice: *slice,
		SnapEvery: *snapEvery, TenantBudget: *tenantBudget,
		AllowShims: allowShims,
	})
	if err != nil {
		fail("%v", err)
	}
	// LIFO: the HTTP listener (registered later) drains first, then
	// the daemon parks its campaigns.
	onExit(func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pfuzzerd: shutdown: %v\n", err)
		}
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	onExit(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close() //nolint:errcheck // the hard close is best-effort after a failed drain
		}
	})

	fmt.Fprintf(os.Stderr, "pfuzzerd: serving on %s, state in %s\n", ln.Addr(), *root)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("%v", err)
	}
	<-shutdownDone // Serve returned because a signal started the shutdown
}

// Server timeouts. A client that trickles its request headers, or
// parks an idle keep-alive connection, would otherwise hold a
// connection and its goroutine forever. There is deliberately no
// WriteTimeout: the /campaigns/{id}/events stream is a long-lived
// response.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// The cleanup stack, mirroring cmd/pfuzzer: every resource that must
// not be abandoned on any exit path registers here, and every exit
// runs the stack exactly once, LIFO.
var (
	cleanupMu   sync.Mutex
	cleanups    []func()
	cleanupDone bool

	// shutdownDone closes when a signal-initiated shutdown has
	// finished its cleanups, releasing main to exit.
	shutdownDone = make(chan struct{})
)

// onExit pushes a cleanup to run at process exit.
func onExit(f func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanups = append(cleanups, f)
}

// runCleanups runs the stack LIFO, once.
func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	if cleanupDone {
		return
	}
	cleanupDone = true
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
}

// exit is the single exit path: cleanups, then the status code.
func exit(code int) {
	runCleanups()
	os.Exit(code)
}

func fail(msg string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfuzzerd: "+msg+"\n", args...)
	exit(2)
}

// trapSignals installs the graceful-shutdown handler: the first
// SIGINT/SIGTERM runs the cleanup stack (HTTP drain, final snapshots,
// journal closes) and exits 0; a second signal during that drain
// forces an immediate exit.
func trapSignals() {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "pfuzzerd: shutting down — parking campaigns at their next slice boundary (signal again to force exit)")
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "pfuzzerd: forced exit")
			os.Exit(130)
		}()
		runCleanups()
		close(shutdownDone)
		os.Exit(0)
	}()
}
