package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

const (
	fleetWorkers = 2
	fleetShards  = 4
	// fleetChunk is the probes a worker scans between heartbeats.
	fleetChunk = 32768
	// fleetPoll replaces the worker's 200 ms default idle poll: at the
	// default, every cycle turn waits up to 200 ms, and that wait
	// dominates the run-to-run spread of a pass.
	fleetPoll = 2 * time.Millisecond
	// spanHeader carries the client RPC span's ID to the handler span.
	spanHeader = "X-E2e-Span"
)

// fleetHTTP is the fleet-http workload: a coord.Coordinator with a
// FileStore, served over loopback HTTP to two coord.Workers running one
// scanner goroutine each, over the sim world. A pass is one whole
// campaign on a fresh coordinator and state file.
type fleetHTTP struct {
	e       *env
	w       *simWorld
	acct    []*accountedProber // one per cycle, shared by the workers
	timing  *durations
	exclude []netaddr.Prefix // the workers' own exclusions (self-test fault)

	ln        net.Listener
	srv       *http.Server
	serveDone chan struct{}
	server    *serverSide
	clients   []*coord.Client
	rpcs      []*rpcTransport

	ref    *fleetRef
	passes int
}

// fleetRef is the single-node scan.Campaign the fleet must reproduce.
type fleetRef struct {
	plans    []rib.Partition
	probed   []uint64
	hosts    []int
	selected []int
	final    []netaddr.Addr
}

func setupFleet(e *env) (instance, error) {
	w, err := newSimWorld(e.seed)
	if err != nil {
		return nil, err
	}
	f := &fleetHTTP{e: e, w: w, server: &serverSide{}, serveDone: make(chan struct{})}
	if e.traced {
		f.timing = newDurations(1 << 20)
	}
	for _, p := range w.probers {
		f.acct = append(f.acct, &accountedProber{inner: p, sampleShift: simSampleShift})
	}
	if e.fault == "worker-exclude" {
		f.exclude = []netaddr.Prefix{netaddr.MustPrefixFrom(w.universe.FirstAt(w.universe.Len()/2), 32)}
	}
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.srv = &http.Server{Handler: f.server}
	go func() {
		defer close(f.serveDone)
		_ = f.srv.Serve(f.ln) // returns ErrServerClosed once close shuts it down
	}()
	base := "http://" + f.ln.Addr().String()
	for i := 0; i < fleetWorkers; i++ {
		rt := &rpcTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		cl := coord.NewClient(base)
		cl.HTTP = &http.Client{Transport: rt}
		f.rpcs = append(f.rpcs, rt)
		f.clients = append(f.clients, cl)
	}
	return f, nil
}

func (f *fleetHTTP) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		_ = f.srv.Close()
	}
	<-f.serveDone
	for _, rt := range f.rpcs {
		rt.base.CloseIdleConnections()
	}
}

// reference runs the single-node campaign the fleet is checked against.
func (f *fleetHTTP) reference() (*fleetRef, error) {
	camp := &scan.Campaign{
		Universe: f.w.universe,
		ProberAt: func(i int) scan.Prober { return f.w.probers[i] },
		Opts:     core.Options{Phi: simPhi},
		Workers:  1,
		Seed:     f.w.scanSeed,
		Protocol: "http",
	}
	cycles, err := camp.Run(context.Background(), simCycles)
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	ref := &fleetRef{}
	for i, cy := range cycles {
		ref.plans = append(ref.plans, cy.Plan)
		ref.probed = append(ref.probed, cy.Report.Probed)
		ref.hosts = append(ref.hosts, cy.Snapshot.Hosts())
		k := cy.Selection.K
		if i == len(cycles)-1 {
			k = 0 // the coordinator does not select after the last cycle
		}
		ref.selected = append(ref.selected, k)
		ref.final = cy.Report.Responsive
	}
	return ref, nil
}

func (f *fleetHTTP) pass(tr *tracer, t *tally) (passStats, error) {
	if f.ref == nil {
		ref, err := f.reference()
		if err != nil {
			return passStats{}, err
		}
		f.ref = ref
	}
	f.passes++
	var timing *durations
	if tr != nil {
		timing = f.timing
		timing.reset()
	}
	for _, a := range f.acct {
		a.reset(timing)
	}
	dir := filepath.Join(f.e.dir, fmt.Sprintf("fleet-%d", f.passes))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return passStats{}, err
	}
	defer os.RemoveAll(dir)
	store := &timedStore{inner: coord.NewFileStore(filepath.Join(dir, "state"))}
	co, err := coord.NewCoordinator(store, nil)
	if err != nil {
		return passStats{}, err
	}
	var root uint64
	if tr != nil {
		root = tr.newID()
	}
	f.server.begin(coord.NewHandler(co), tr)
	for _, rt := range f.rpcs {
		rt.begin(tr, root)
	}
	var idle atomic.Int64
	// cycleStart[c] is when a worker first asked for cycle c's prober.
	var cycleStart [simCycles]atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := coord.CampaignSpec{
		ID:          "bench",
		Universe:    cidrs(f.w.universe),
		Phi:         simPhi,
		Cycles:      simCycles,
		Shards:      fleetShards,
		Workers:     1,
		Seed:        f.w.scanSeed,
		ChunkProbes: fleetChunk,
		Protocol:    "http",
	}
	start := time.Now()
	if err := f.clients[0].CreateCampaign(ctx, spec); err != nil {
		return passStats{}, fmt.Errorf("creating campaign: %w", err)
	}
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i := 0; i < fleetWorkers; i++ {
		wk := &coord.Worker{
			Client:   f.clients[i],
			ID:       fmt.Sprintf("w%d", i),
			Campaign: spec.ID,
			ProberAt: func(cycle int) scan.Prober {
				cycleStart[cycle].CompareAndSwap(0, time.Now().UnixNano())
				return f.acct[cycle]
			},
			Exclude:   f.exclude,
			PollEvery: fleetPoll,
			Sleep: func(ctx context.Context, d time.Duration) error {
				t0 := time.Now()
				defer func() { idle.Add(int64(time.Since(t0))) }()
				return sleepCtx(ctx, d)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = wk.Run(ctx)
		}()
	}
	wg.Wait()
	end := time.Now()
	if err := errors.Join(errs...); err != nil {
		return passStats{}, fmt.Errorf("fleet workers: %w", err)
	}
	st, err := f.clients[0].Status(ctx, spec.ID)
	if err != nil {
		return passStats{}, fmt.Errorf("campaign status: %w", err)
	}
	served := f.server.take()
	f.server.begin(nil, nil)

	p := passStats{wall: end.Sub(start)}
	var rpcCalls, rpcFailed int64
	var uploadBytes, heartbeats int64
	for _, rt := range f.rpcs {
		rt.mu.Lock()
		p.lat = append(p.lat, rt.heartbeats...)
		rpcCalls += rt.calls
		rpcFailed += rt.failed
		uploadBytes += rt.heartbeatBytes
		heartbeats += int64(len(rt.heartbeats))
		rt.mu.Unlock()
	}
	var probed, probeErrs uint64
	for _, h := range st.History {
		probed += h.Probed
		probeErrs += h.Errors
	}
	p.ops = float64(probed)
	lastTruth := f.w.truth.At(simCycles - 1)
	p.hitrate = float64(census.IntersectCount(st.Responsive, lastTruth.Addrs)) / float64(lastTruth.Hosts())
	p.costShare = float64(probed) / float64(simCycles*f.w.universe.AddressCount())
	t.ops(int64(probed)+rpcCalls, int64(probeErrs)+rpcFailed)

	ref := f.ref
	t.check(st.Done && len(st.History) == simCycles, "fleet-vs-reference",
		"campaign done=%v after %d of %d cycles", st.Done, len(st.History), simCycles)
	for i, h := range st.History {
		if i >= simCycles {
			break
		}
		t.check(h.Plan == ref.plans[i].Len() && h.Probed == ref.probed[i] && h.Responsive == ref.hosts[i] && h.Selected == ref.selected[i],
			"fleet-vs-reference", "cycle %d: fleet plan %d prefixes, probed %d, found %d, selected %d; single node %d, %d, %d, %d",
			i, h.Plan, h.Probed, h.Responsive, h.Selected, ref.plans[i].Len(), ref.probed[i], ref.hosts[i], ref.selected[i])
		t.check(h.Errors == 0, "probe-errors", "cycle %d: %d probes failed", i, h.Errors)
		checkLedger(t, f.acct[i], ref.plans[i], fmt.Sprintf("fleet cycle %d", i))
	}
	t.check(slices.Equal(st.Responsive, ref.final), "fleet-vs-reference",
		"final responsive set: fleet %d hosts, single node %d", len(st.Responsive), len(ref.final))
	t.check(rpcFailed == 0, "rpc", "%d of %d RPC attempts failed", rpcFailed, rpcCalls)

	if tr != nil {
		tr.add(root, 0, "fleet-http.pass", start, end)
		for c := 0; c < simCycles; c++ {
			cycleEnd := end
			if c+1 < simCycles {
				cycleEnd = time.Unix(0, cycleStart[c+1].Load())
			}
			tr.record(root, fmt.Sprintf("fleet.cycle %d", c), time.Unix(0, cycleStart[c].Load()), cycleEnd)
		}
		p.layer = f.layers(tr, served, store, probed, probeErrs, rpcFailed, uploadBytes, heartbeats, time.Duration(idle.Load()))
	}
	return p, nil
}

// layers derives the coordinator numbers of a traced pass and records
// the server-side and store spans. A Store.Save carries no context, so
// its parent is found by time: the handler span that contains it and
// ends first (the handler holding the coordinator lock; a handler
// waiting on the lock ends later).
func (f *fleetHTTP) layers(tr *tracer, srv []handlerSpan, store *timedStore, probed, probeErrs uint64, rpcFailed, uploadBytes, heartbeats int64, idle time.Duration) map[string]float64 {
	store.mu.Lock()
	saves := store.saves
	store.mu.Unlock()
	var saveMS []float64
	stateBytes := 0
	for _, s := range saves {
		parent := uint64(0)
		var best time.Time
		for _, h := range srv {
			if !h.start.After(s.start) && !h.end.Before(s.end) && (parent == 0 || h.end.Before(best)) {
				parent, best = h.id, h.end
			}
		}
		tr.record(parent, "coord.Store.Save", s.start, s.end)
		saveMS = append(saveMS, ms(s.end.Sub(s.start)))
		stateBytes = max(stateBytes, s.bytes)
	}
	byRoute := map[string][]float64{}
	for _, h := range srv {
		byRoute[h.route] = append(byRoute[h.route], ms(h.end.Sub(h.start)))
	}
	var clientHB []float64
	for _, rt := range f.rpcs {
		rt.mu.Lock()
		clientHB = append(clientHB, durationsMS(rt.heartbeats)...)
		rt.mu.Unlock()
	}
	probe := f.timing.values()
	out := map[string]float64{
		"scan.probes":                      float64(probed),
		"scan.errors":                      float64(probeErrs),
		"scan.prober_ns_p50":               percentile(probe, 0.50),
		"scan.prober_ns_p99":               percentile(probe, 0.99),
		"coord.acquire_ms_p50":             percentile(byRoute["acquire"], 0.50),
		"coord.acquire_ms_p99":             percentile(byRoute["acquire"], 0.99),
		"coord.heartbeat_ms_p50":           percentile(byRoute["heartbeat"], 0.50),
		"coord.heartbeat_ms_p99":           percentile(byRoute["heartbeat"], 0.99),
		"coord.client_heartbeat_ms_p99":    percentile(clientHB, 0.99),
		"coord.complete_ms_p50":            percentile(byRoute["complete"], 0.50),
		"coord.complete_ms_max":            percentile(byRoute["complete"], 1),
		"coord.store_save_ms_p50":          percentile(saveMS, 0.50),
		"coord.store_save_ms_p99":          percentile(saveMS, 0.99),
		"coord.state_bytes":                float64(stateBytes),
		"coord.upload_bytes_per_heartbeat": 0,
		"coord.rpc_retries":                float64(rpcFailed),
		"coord.worker_idle_s":              idle.Seconds(),
	}
	if heartbeats > 0 {
		out["coord.upload_bytes_per_heartbeat"] = float64(uploadBytes) / float64(heartbeats)
	}
	return out
}

func cidrs(p rib.Partition) []string {
	out := make([]string, p.Len())
	for i := range out {
		out[i] = p.Prefix(i).String()
	}
	return out
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// routeOf names a coordinator RPC by its URL path.
func routeOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/acquire"):
		return "acquire"
	case strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(path, "/complete"):
		return "complete"
	case path == "/v1/campaigns":
		return "create"
	}
	return "status"
}

// rpcTransport is a worker's HTTP transport: it times every attempt as
// the client sees it, counts failed attempts (each one is retried by
// the client) and, when tracing, opens the client span whose ID the
// handler span links to.
type rpcTransport struct {
	base *http.Transport

	mu             sync.Mutex
	tr             *tracer
	parent         uint64
	heartbeats     []time.Duration
	heartbeatBytes int64
	calls, failed  int64
}

func (rt *rpcTransport) begin(tr *tracer, parent uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.tr, rt.parent = tr, parent
	rt.heartbeats = rt.heartbeats[:0]
	rt.heartbeatBytes, rt.calls, rt.failed = 0, 0, 0
}

func (rt *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.URL.Path)
	rt.mu.Lock()
	tr, parent := rt.tr, rt.parent
	rt.mu.Unlock()
	var id uint64
	if tr != nil {
		id = tr.newID()
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := rt.base.RoundTrip(req)
	end := time.Now()
	if tr != nil {
		tr.add(id, parent, "rpc "+route, start, end)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.calls++
	if err != nil || resp.StatusCode != http.StatusOK {
		rt.failed++
	}
	if route == "heartbeat" {
		rt.heartbeats = append(rt.heartbeats, end.Sub(start))
		rt.heartbeatBytes += req.ContentLength
	}
	return resp, err
}

// serverSide routes requests to the current pass's coordinator handler
// and times each one on the server.
type serverSide struct {
	mu      sync.Mutex
	handler http.Handler
	tr      *tracer
	spans   []handlerSpan
}

type handlerSpan struct {
	id         uint64
	route      string
	start, end time.Time
}

func (s *serverSide) begin(h http.Handler, tr *tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler, s.tr = h, tr
	s.spans = nil
}

func (s *serverSide) take() []handlerSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}

func (s *serverSide) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h, tr := s.handler, s.tr
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "no campaign running", http.StatusServiceUnavailable)
		return
	}
	start := time.Now()
	h.ServeHTTP(w, r)
	end := time.Now()
	if tr == nil {
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	route := routeOf(r.URL.Path)
	id := tr.record(parent, "coord.handler "+route, start, end)
	s.mu.Lock()
	s.spans = append(s.spans, handlerSpan{id: id, route: route, start: start, end: end})
	s.mu.Unlock()
}

// timedStore wraps the coordinator's store and times every Save.
type timedStore struct {
	inner coord.Store
	mu    sync.Mutex
	saves []saveRecord
}

type saveRecord struct {
	start, end time.Time
	bytes      int
}

func (s *timedStore) Save(data []byte) error {
	start := time.Now()
	err := s.inner.Save(data)
	end := time.Now()
	s.mu.Lock()
	s.saves = append(s.saves, saveRecord{start: start, end: end, bytes: len(data)})
	s.mu.Unlock()
	return err
}

func (s *timedStore) Load() ([]byte, error) { return s.inner.Load() }
