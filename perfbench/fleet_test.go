package main

import "testing"

func TestFleetWavesTwins(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, secs := range []int{3, 20, 34} {
			waves := fleetWaves(secs, workers)
			if len(waves) != max(1, secs/5) {
				t.Fatalf("seconds %d: %d waves", secs, len(waves))
			}
			var mix []fleetJob
			for _, w := range waves {
				// Each wave keeps the pool saturated after the closed
				// loop's first fleetInFlight submissions.
				if len(w) <= fleetInFlight(workers)-workers {
					t.Errorf("workers %d: a wave of %d campaigns never saturates the pool", workers, len(w))
				}
				mix = append(mix, w...)
			}
			shims := 0
			for i, j := range mix {
				if !j.shim {
					continue
				}
				shims++
				tw := mix[j.twin]
				if tw.shim || tw.subject != j.subject || tw.execs != j.execs || j.twin/len(fleetWave) != i/len(fleetWave) {
					t.Errorf("workers %d, seconds %d: campaign %d's twin %d is %+v", workers, secs, i, j.twin, tw)
				}
			}
			if want := len(waves) * max(1, (workers+1)/2); shims != want {
				t.Errorf("workers %d, seconds %d: %d shim campaigns, want %d", workers, secs, shims, want)
			}
		}
	}
}
func TestGauge(t *testing.T) {
	text := "# HELP pfuzzerd_queue_depth x\n# TYPE pfuzzerd_queue_depth gauge\npfuzzerd_queue_depth 3\npfuzzerd_campaigns{state=\"done\"} 2\n"
	if v, ok := gauge(text, "pfuzzerd_queue_depth"); !ok || v != 3 {
		t.Errorf("queue depth = %v, %v", v, ok)
	}
	if _, ok := gauge(text, "pfuzzerd_campaigns"); ok {
		t.Error("a labelled series is not an unlabelled gauge")
	}
}
