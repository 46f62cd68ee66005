package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// spec is the part of BENCHMARK.json the steadiness mode reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSteady runs the workload n times untraced, on seeds seed..seed+n-1,
// each in its own process as the acceptance check does, then once
// traced. For every end-to-end metric it prints the median, the
// quartiles and their distance as a share of the median, flagging a
// spread over the metric's bound in BENCHMARK.json (and, as a warning,
// one over a third of it). It ends with the traced run's overhead.
func runSteady(name string, seed int64, seconds, n int, stdout, stderr io.Writer) int {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		res, err := runChild(name, seed+int64(i), seconds, 0, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		var line []string
		for _, m := range sp.EndToEnd {
			v := res.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			line = append(line, fmt.Sprintf("%s=%.4g", m.Name, v))
		}
		fmt.Fprintf(stdout, "run %d seed %d: attempted=%d failed=%d %s\n", i, seed+int64(i), res.Attempted, res.Failed, strings.Join(line, " "))
	}
	fmt.Fprintf(stdout, "%s: %d runs of %d s\n", name, n, seconds)
	fmt.Fprintf(stdout, "  %-16s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	flagged := 0
	for _, m := range sp.EndToEnd {
		vs := values[m.Name]
		med := median(vs)
		q1, q3 := vs[0], vs[0]
		if len(vs) > 1 {
			q1, q3 = quartiles(vs)
		}
		spread := ratio(q3-q1, med)
		mark := ""
		switch {
		case m.Name == "setup_s":
			// set-up is exempt from the spread check; only its median counts
		case spread > m.Bound:
			mark = "OUTSIDE BOUND"
			flagged++
		case spread > m.Bound/3:
			mark = "above bound/3"
		}
		fmt.Fprintf(stdout, "  %-16s %12.5g %12.5g %12.5g %8.4f %6.3f %s\n", m.Name, med, q1, q3, spread, m.Bound, mark)
	}
	res, err := runChild(name, seed, seconds, 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: traced run: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "traced run seed %d: trace.overhead_frac=%.4f (1 - traced ops/s over untraced ops/s within the run)\n",
		seed, res.Metrics["trace.overhead_frac"].Value)
	fmt.Fprintf(stdout, "%d metric(s) outside their bound\n", flagged)
	return 0
}

// runChild runs one workload in a child process and parses its result
// line.
func runChild(name string, seed int64, seconds, trace int, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line (%v): %s", runErr, out.String())
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("failed (%v):\n%s", runErr, out.String())
	}
	return &res, nil
}
