// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload of the paper's loop — scan, census, rank, select, scan the
// smaller plan — from a seed, checks every output, and prints the
// metrics named in BENCHMARK.json as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones and writes its spans
// to .bench_build/traces/. Build and run it through run.sh from the
// repository root; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the metric names and units it must report.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (campaign-sim, plan-churn, fleet-http, tcp-loopback)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured time per run, in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		selftest = flag.Bool("selftest", false, "run every workload briefly with injected faults and check that each output check trips")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *selftest); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// The benchmark runs from the repository root: it reads the metric
// list from specPath and keeps every file it writes under workdir.
const (
	specPath = "BENCHMARK.json"
	workdir  = ".bench_build"
)

func run(workload string, seed int64, seconds float64, trace int, selftest bool) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(workdir, "work"), 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(filepath.Join(workdir, "work"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if selftest {
		return runSelfTest(scratch, seed)
	}
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	w.useProcs(runtime.GOMAXPROCS(0))
	e := &env{seed: seed, seconds: seconds, traced: trace == 1, dir: scratch}
	out, err := measure(e, w.setup)
	if err != nil {
		return err
	}
	host := hostInfo()
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hostJSON)
	for _, msg := range out.failures {
		fmt.Printf("check failed: %s\n", msg)
	}
	res := result{
		Correct:   out.failedChecks == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	want := spec.EndToEnd
	got := out.endToEnd
	if e.traced {
		want = spec.PerLayer
		got = out.perLayer
		got["host.nproc"] = float64(host.NumCPU)
		got["host.gomaxprocs"] = float64(host.GOMAXPROCS)
		path, err := writeTrace(workload, seed, host, got, out.spans)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s (%d spans)\n", path, len(out.spans))
	}
	if err := fillMetrics(res.Metrics, want, got, e.traced); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fillMetrics copies every wanted metric into dst. A per-layer metric a
// workload does not exercise reads 0; an end-to-end metric must be
// measured by every workload.
func fillMetrics(dst map[string]metricValue, want []metricSpec, got map[string]float64, perLayer bool) error {
	known := map[string]bool{}
	for _, m := range want {
		known[m.Name] = true
		v, ok := got[m.Name]
		if !ok && !perLayer {
			return fmt.Errorf("workload did not measure end-to-end metric %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		dst[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if !known[name] {
			return fmt.Errorf("metric %s is not declared in the benchmark definition", name)
		}
	}
	return nil
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("benchmark definition lists no metrics")
	}
	return &s, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// host describes the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func hostInfo() host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// writeTrace stores a traced run's spans and per-layer numbers as one
// JSON document under workdir/traces.
func writeTrace(workload string, seed int64, h host, layers map[string]float64, spans []span) (string, error) {
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Host     host               `json:"host"`
		PerLayer map[string]float64 `json:"per_layer"`
		Spans    []span             `json:"spans"`
	}{workload, seed, h, layers, spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}
