package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
)

// steadiness runs the workload k times as child processes (peak RSS is
// per process), seeds seed..seed+k-1, and prints for every metric its
// median, quartiles, IQR/median and (max-min)/median: the evidence
// that the benchmark is steady enough for its bounds.
func steadiness(stdout io.Writer, k int, seed int64, args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		// Later flags win, so the appended ones override the caller's.
		cmd := exec.Command(exe, append(slices.Clone(args), "-steady", "0", "-seed", fmt.Sprint(s))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		if !res.Correct {
			failed++
			for _, l := range bytes.Split(out, []byte("\n")) {
				if bytes.Contains(l, []byte("FAILED")) {
					fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, bytes.TrimSpace(l))
				}
			}
		}
		line := fmt.Sprintf("seed %d:", s)
		for _, n := range sortedKeys(res.Metrics) {
			m := res.Metrics[n]
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
			line += fmt.Sprintf(" %s=%.6g", n, m.Value)
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "%d runs, %d incorrect\n", k, failed)
	fmt.Fprintf(stdout, "%-30s %14s %14s %14s %9s %9s %s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
	for _, n := range sortedKeys(values) {
		xs := values[n]
		q1, q2, q3, err := quartiles(xs)
		if err != nil {
			fmt.Fprintf(stdout, "%-30s %v\n", n, err)
			continue
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		fmt.Fprintf(stdout, "%-30s %14.6g %14.6g %14.6g %9.4f %9.4f %s\n",
			n, q2, q1, q3, spread(q3-q1, q2), spread(hi-lo, median(xs)), units[n])
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// spread is width as a share of mid, 0 when both are 0.
func spread(width, mid float64) float64 {
	if mid == 0 {
		return 0
	}
	return width / mid
}

// lastResult parses the JSON verdict on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}
