package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// env is what a workload sees of the run: the seed its inputs derive
// from, the measured time, and the self-test's injected fault.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // scratch directory, removed when the run ends
	// fault names the fault the self-test injects ("" in a normal run).
	fault string
}

// setupFunc builds a workload's inputs from the seed. It must be
// repeatable: the harness runs it several times and reports the median
// as setup_s.
type setupFunc func(e *env) (instance, error)

// instance is one set-up workload.
type instance interface {
	// pass runs one unit of the workload and checks its outputs into t.
	// tr is nil on untraced passes.
	pass(tr *tracer, t *tally) (passStats, error)
	close()
}

// curveInstance is a workload that also measures its probe rate at 1
// and 2 scanner workers in a traced run.
type curveInstance interface {
	instance
	setWorkers(n int)
}

// workload is one benchmark workload. procs, when not 0, sets
// GOMAXPROCS for the workload's run. plan-churn and fleet-http run on
// one processor: at two, another process holding one of the shared
// host's two cores slowed their latencies by a third to three quarters,
// while at one they did not move (README.md, "Noise sources").
type workload struct {
	setup setupFunc
	procs int
}

var workloads = map[string]workload{
	"campaign-sim": {setup: setupCampaign},
	"plan-churn":   {setup: setupPlanChurn, procs: 1},
	"fleet-http":   {setup: setupFleet, procs: 1},
	"tcp-loopback": {setup: setupTCP},
}

// useProcs sets GOMAXPROCS for w: its own cap, or else defaultProcs.
func (w workload) useProcs(defaultProcs int) {
	n := defaultProcs
	if w.procs > 0 {
		n = w.procs
	}
	runtime.GOMAXPROCS(n)
}

// passStats is what one pass measured.
type passStats struct {
	wall time.Duration // the whole pass
	ops  float64       // probes, or changed addresses for plan-churn
	// lat holds the workload's unit latencies: reseed cycles, planning
	// steps, heartbeat RPCs or single probes.
	lat       []time.Duration
	hitrate   float64
	costShare float64
	// layer holds per-layer values of a traced pass; the run reports
	// the median over its traced passes.
	layer map[string]float64
}

// tally counts operations and output checks. failed counts failed
// operations (probe errors, failed RPCs) and failed checks alike.
type tally struct {
	attempted, failed int64
	failedChecks      int64
	failures          []string
}

func (t *tally) ops(attempted, failed int64) {
	t.attempted += attempted
	t.failed += failed
}

// check records one output check of the named kind; it returns ok.
func (t *tally) check(ok bool, name, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.failedChecks++
		if len(t.failures) < 20 {
			t.failures = append(t.failures, name+": "+fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// outcome is a finished run.
type outcome struct {
	endToEnd, perLayer map[string]float64
	attempted, failed  int64
	failedChecks       int64
	failures           []string
	spans              []span
}

// Set-up runs at least minSetups times and until setupTime has passed
// (at most maxSetups times); setup_s is the median.
const (
	minSetups = 3
	maxSetups = 15
	setupTime = time.Second
)

// measure sets the workload up several times, runs one warm-up
// pass, then runs passes for the measured time. An untraced run reports
// end-to-end metrics from all its passes. A traced run spends half its
// time untraced and half traced (campaign-sim: a third each at 2 and 1
// scanner workers untraced, a third traced) and reports per-layer
// metrics, the tracing overhead and the worker curve.
func measure(e *env, setup setupFunc) (*outcome, error) {
	var setups []float64
	var inst instance
	setupStart := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(setupStart) < setupTime) {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	t := &tally{}
	if _, err := inst.pass(nil, t); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	total := time.Duration(e.seconds * float64(time.Second))
	out := &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
	if !e.traced {
		passes, err := runPhase(inst, nil, t, total, 3)
		if err != nil {
			return nil, err
		}
		out.endToEnd = endToEnd(passes)
		out.endToEnd["setup_s"] = median(setups)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.endToEnd["peak_rss_mb"] = rss
	} else {
		share := total / 2
		curve, isCurve := inst.(curveInstance)
		if isCurve {
			share = total / 3
		}
		plain, err := runPhase(inst, nil, t, share, 1)
		if err != nil {
			return nil, err
		}
		if isCurve {
			curve.setWorkers(1)
			one, err := runPhase(inst, nil, t, share, 1)
			curve.setWorkers(2)
			if err != nil {
				return nil, err
			}
			out.perLayer["scan.probes_per_s_w1"] = opsPerSecond(one)
			out.perLayer["scan.probes_per_s_w2"] = opsPerSecond(plain)
		}
		tr := newTracer()
		traced, err := runPhase(inst, tr, t, share, 1)
		if err != nil {
			return nil, err
		}
		layers := make([]map[string]float64, len(traced))
		for i, p := range traced {
			layers[i] = p.layer
		}
		for k, v := range medianLayers(layers) {
			out.perLayer[k] = v
		}
		out.perLayer["trace.overhead_s"] = meanOf(traced, wallSeconds) - meanOf(plain, wallSeconds)
		out.spans = tr.finish()
		out.perLayer["trace.spans"] = float64(len(out.spans))
	}
	out.attempted, out.failed, out.failedChecks, out.failures = t.attempted, t.failed, t.failedChecks, t.failures
	return out, nil
}

// runPhase runs passes until d has elapsed and at least minPasses ran.
func runPhase(inst instance, tr *tracer, t *tally, d time.Duration, minPasses int) ([]passStats, error) {
	var passes []passStats
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < d {
		p, err := inst.pass(tr, t)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// endToEnd computes the end-to-end metrics other than setup_s and
// peak_rss_mb from untraced passes. Times are averaged over the passes,
// not taken as their median: the shared host's speed drifts by a fifth
// or more within seconds, and a median over passes then jumps between a
// fast and a slow mode from run to run. run_s is the mean pass and
// ops_per_s divides all work by all time. A latency percentile is taken
// per pass and averaged over passes; pooling the latencies of all passes
// instead is unsteady where a pass's units differ in size (plan-churn's
// steps, campaign-sim's cycles), because the pooled median then falls in
// the gap between two unit sizes.
func endToEnd(passes []passStats) map[string]float64 {
	latency := func(q float64) float64 {
		return meanOf(passes, func(p passStats) float64 { return percentile(durationsMS(p.lat), q) })
	}
	return map[string]float64{
		"run_s":          meanOf(passes, wallSeconds),
		"ops_per_s":      opsPerSecond(passes),
		"latency_p50_ms": latency(0.50),
		"latency_p90_ms": latency(0.90),
		"hitrate":        medianOf(passes, func(p passStats) float64 { return p.hitrate }),
		"cost_share":     medianOf(passes, func(p passStats) float64 { return p.costShare }),
	}
}

// medianLayers takes the median of each per-layer value over samples.
func medianLayers(samples []map[string]float64) map[string]float64 {
	byKey := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := make(map[string]float64, len(byKey))
	for k, vs := range byKey {
		out[k] = median(vs)
	}
	return out
}

func wallSeconds(p passStats) float64 { return p.wall.Seconds() }

// opsPerSecond is the work of all passes over their total wall time.
func opsPerSecond(passes []passStats) float64 {
	var ops, wall float64
	for _, p := range passes {
		ops += p.ops
		wall += p.wall.Seconds()
	}
	return ops / wall
}

func meanOf(passes []passStats, f func(passStats) float64) float64 {
	sum := 0.0
	for _, p := range passes {
		sum += f(p)
	}
	return sum / float64(len(passes))
}

func medianOf(passes []passStats, f func(passStats) float64) float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = f(p)
	}
	return median(vs)
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// percentile interpolates linearly between the closest ranks; it
// returns 0 for no samples.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM), so the
// reported peak covers the measured passes and not input generation.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // an older kernel keeps the whole-process peak
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(v), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// span is one traced interval. Parent is 0 for a root span.
type span struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span ID before the span's end is known, so children
// can name their parent while it is still open.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent uint64, name string, start, end time.Time) {
	s := span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartUS: float64(start.Sub(t.origin)) / 1e3,
		DurUS:   float64(end.Sub(start)) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a finished span and returns its ID.
func (t *tracer) record(parent uint64, name string, start, end time.Time) uint64 {
	id := t.newID()
	t.add(id, parent, name, start, end)
	return id
}

func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	slices.SortFunc(t.spans, func(a, b span) int {
		switch {
		case a.StartUS < b.StartUS:
			return -1
		case a.StartUS > b.StartUS:
			return 1
		}
		return int(a.ID) - int(b.ID)
	})
	return t.spans
}

// durations collects per-call durations from concurrent goroutines
// without a lock: each call claims a slot of a fixed ring, so a long
// pass keeps its most recent len(buf) samples.
type durations struct {
	buf []int64
	n   atomic.Uint64
}

func newDurations(size int) *durations { return &durations{buf: make([]int64, size)} }

func (d *durations) add(x time.Duration) {
	i := d.n.Add(1) - 1
	d.buf[i%uint64(len(d.buf))] = int64(x)
}

func (d *durations) reset() { d.n.Store(0) }

// values returns the kept samples in nanoseconds. Call it only after
// every adding goroutine has finished.
func (d *durations) values() []float64 {
	n := min(d.n.Load(), uint64(len(d.buf)))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(d.buf[i])
	}
	return out
}
