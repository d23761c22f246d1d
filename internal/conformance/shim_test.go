package conformance

import (
	"io"
	"os"
	"testing"

	"pfuzzer/internal/registry"
	"pfuzzer/internal/shim"
)

// TestConformanceSelfShim is the acceptance gate for the whole
// out-of-process stack: the full conformance kit — determinism
// (including concurrent runs over one shared Program), prefix
// behaviour, engine agreement with bit-identical fingerprints, cache transparency, snapshot/resume — run over
// subjects served through the shim instead of in process. Every
// execution crosses the framed protocol and is replayed into the
// parent's tracer, so a single byte of divergence anywhere in the
// codec, lifecycle or replay fails the kit.
//
// With PSHIM_BIN set (CI builds cmd/pshim and points here), the
// children are real pshim subprocesses; otherwise the protocol runs
// over in-memory pipes, which exercises everything but fork/exec.
func TestConformanceSelfShim(t *testing.T) {
	if testing.Short() {
		t.Skip("full conformance kit over the shim is not a -short test")
	}
	launcher := func(t *testing.T) shim.Launcher {
		if bin := os.Getenv("PSHIM_BIN"); bin != "" {
			return shim.CmdLauncher{Path: bin}
		}
		return shim.PipeLauncher{Serve: func(r io.Reader, w io.Writer) error {
			return shim.Serve(r, w, shim.ServeConfig{Lookup: registry.NewProgram})
		}}
	}
	for _, name := range []string{"expr", "paren", "ini"} {
		t.Run(name, func(t *testing.T) {
			e, ok := registry.Get(name)
			if !ok {
				t.Fatalf("subject %s not registered", name)
			}
			h, err := shim.NewHost(launcher(t), shim.Options{Subject: name})
			if err != nil {
				t.Fatalf("NewHost(%s): %v", name, err)
			}
			defer h.Close()
			CheckWith(t, shim.WrapEntry(e, h), Options{
				CorpusExecs: 1500,
				EngineExecs: 900,
				MaxProbes:   120,
			})
			if st := h.Stats(); st.Crashes+st.Hangs+st.Protocol+st.Unavailable != 0 {
				t.Errorf("conformance run reported losses: %+v", st)
			}
		})
	}
}
