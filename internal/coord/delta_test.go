package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// peekUpload decodes the Upload in a heartbeat or complete request and
// restores the body for the handler.
func peekUpload(t *testing.T, r *http.Request) (Upload, []byte) {
	t.Helper()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var up Upload
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatalf("undecodable upload: %v", err)
	}
	return up, body
}

// checkedStore checks every saved blob against the coordinator's memory:
// decoded, it must equal the in-memory state exactly, so no cached
// section is ever stale and memory never runs ahead of the store.
type checkedStore struct {
	Store
	t *testing.T
	c *Coordinator // set once the coordinator exists
}

func (s *checkedStore) Save(data []byte) error {
	if s.c != nil {
		// The coordinator holds its lock around Save, so reading its
		// memory here is safe.
		re, err := NewCoordinator(&MemStore{data: data}, nil)
		if err != nil {
			s.t.Errorf("saved blob does not load: %v", err)
		} else if a, b := stateDump(s.t, re), stateDump(s.t, s.c); a != b {
			s.t.Errorf("saved blob differs from memory:\n blob %s\n  mem %s", a, b)
		}
	}
	return s.Store.Save(data)
}

// checkedCoordinator builds a coordinator over a checkedStore wrapping
// store.
func checkedCoordinator(t *testing.T, store Store, now func() time.Time) *Coordinator {
	t.Helper()
	cs := &checkedStore{Store: store, t: t}
	cs.c = mustCoordinator(t, cs, now)
	return cs.c
}

// stateDump renders everything a coordinator persists, in the v1 JSON
// shape, for comparison.
func stateDump(t *testing.T, co *Coordinator) string {
	t.Helper()
	b, err := json.Marshal(stateV1{Version: 1, NextLease: co.nextLease, Campaigns: co.campaigns})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func isUpload(r *http.Request) bool {
	return strings.HasSuffix(r.URL.Path, "/heartbeat") || strings.HasSuffix(r.URL.Path, "/complete")
}

// runFaultCampaign runs one worker over tr to the end of a faultSpec
// campaign, advancing the virtual clock on every idle poll, and returns
// the probe ledger.
func runFaultCampaign(t *testing.T, tr *memTransport, clk *vclock) *probeLog {
	t.Helper()
	dist := newProbeLog()
	w := &Worker{
		Client:   newTestClient(tr),
		ID:       "w",
		Campaign: "camp",
		ProberAt: func(cycle int) scan.Prober {
			return &countingProber{log: dist, cycle: cycle, inner: faultProberAt(cycle)}
		},
		Now: clk.Now,
		Sleep: func(ctx context.Context, d time.Duration) error {
			clk.Advance(2 * time.Second)
			return ctx.Err()
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	return dist
}

// TestDeltaUploadReplayReorderGap replays stale uploads into the
// coordinator behind the worker's back: after every second chunk
// upload, the lease's first upload lands again (a stale renewal
// arriving after a newer chunk upload), so the coordinator falls back
// to an older prefix of the result log than the worker was told it
// holds; every upload is also delivered twice. The worker's next delta
// is refused with ErrUploadGap, it resends from 0, and the campaign
// still probes every address exactly once and matches the single-node
// run.
func TestDeltaUploadReplayReorderGap(t *testing.T) {
	const cycles = 3
	single, singleLog := runSingleNode(t, cycles)

	clk := newVClock()
	c := checkedCoordinator(t, NewMemStore(), clk.Now)
	if err := c.CreateCampaign(faultSpec(2, cycles)); err != nil {
		t.Fatal(err)
	}
	inner := NewHandler(c)
	var mu sync.Mutex
	first := map[string][]byte{} // lease path → its first heartbeat body
	beats := map[string]int{}
	var gaps, deltas, packed int
	tr := &memTransport{handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isUpload(r) {
			inner.ServeHTTP(w, r)
			return
		}
		up, body := peekUpload(t, r)
		lease := r.URL.Path[:strings.LastIndexByte(r.URL.Path, '/')]
		deliver := func(w http.ResponseWriter) {
			req := r.Clone(r.Context())
			req.Body = io.NopCloser(bytes.NewReader(body))
			inner.ServeHTTP(w, req)
		}
		// A heartbeat's duplicate lands first and its answer is lost;
		// the worker sees the answer to the second copy.
		if strings.HasSuffix(r.URL.Path, "/heartbeat") {
			deliver(httptest.NewRecorder())
		}
		rec := httptest.NewRecorder()
		deliver(rec)
		mu.Lock()
		if up.From > 0 {
			deltas++
		}
		if bytes.Contains(body, []byte(`"packed"`)) {
			packed++
		}
		if rec.Code == http.StatusRequestedRangeNotSatisfiable {
			gaps++
		}
		stale, replay := first[lease], false
		if strings.HasSuffix(r.URL.Path, "/heartbeat") && rec.Code == http.StatusOK {
			if stale == nil {
				first[lease] = body
			}
			beats[lease]++
			replay = stale != nil && beats[lease]%2 == 0
		}
		mu.Unlock()
		if replay {
			req := r.Clone(r.Context())
			req.Body = io.NopCloser(bytes.NewReader(stale))
			inner.ServeHTTP(httptest.NewRecorder(), req)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})}

	dist := runFaultCampaign(t, tr, clk)
	st, err := c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingleNode(t, st, dist, single, singleLog)
	if deltas == 0 || gaps == 0 || packed == 0 {
		t.Fatalf("%d delta uploads, %d packed, %d gap refusals: the faults proved nothing", deltas, packed, gaps)
	}
}

// TestCrashBetweenSaveAndReplyResendsOlderOffset: the coordinator
// commits a delta upload to its FileStore and dies before replying. A
// new coordinator starts from the file, and the worker's retry of the
// same upload — From at the offset the worker last saw acknowledged,
// now behind what the store holds — rewrites the tail instead of
// doubling it.
func TestCrashBetweenSaveAndReplyResendsOlderOffset(t *testing.T) {
	const cycles = 2
	single, singleLog := runSingleNode(t, cycles)

	clk := newVClock()
	store := NewFileStore(filepath.Join(t.TempDir(), "state"))
	c := checkedCoordinator(t, store, clk.Now)
	if err := c.CreateCampaign(faultSpec(1, cycles)); err != nil {
		t.Fatal(err)
	}
	tr := &memTransport{handler: NewHandler(c)}
	// The crash hits the first delta that adds results. The transport
	// serializes requests, so reading the restarted coordinator's shard
	// here races with nothing.
	var crashNext, crashed, behind bool
	var restarted *Coordinator
	tr.onRequest = func(r *http.Request) error {
		if !strings.HasSuffix(r.URL.Path, "/heartbeat") || behind {
			return nil
		}
		up, _ := peekUpload(t, r)
		if !crashed {
			crashNext = up.From > 0 && len(up.Responsive) > 0
			return nil
		}
		restarted.mu.Lock()
		defer restarted.mu.Unlock()
		sh := restarted.campaigns["camp"].Shards[0]
		behind = up.From > 0 && up.From < len(sh.Current)
		return nil
	}
	tr.dropResponse = func(r *http.Request, n int) bool {
		if crashed || !crashNext {
			return false
		}
		// The heartbeat was saved; the process dies before the reply.
		c2 := checkedCoordinator(t, store, clk.Now)
		restarted, crashed = c2, true
		tr.handler = NewHandler(c2)
		return true
	}

	dist := runFaultCampaign(t, tr, clk)
	if !crashed || !behind {
		t.Fatalf("crashed=%v, retry behind the store=%v: the fault did not fire", crashed, behind)
	}
	st, err := restarted.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingleNode(t, st, dist, single, singleLog)
	for i, h := range st.History {
		if h.Releases != 1 {
			t.Errorf("cycle %d lease grants = %d, want 1: the restart must honor the lease", i, h.Releases)
		}
	}
}

// TestWorkerAgainstCoordinatorWithoutHeld: a coordinator that predates
// delta uploads answers heartbeats without `held`, ignores `from` and
// cannot read `packed`. The worker must then send every upload from 0
// as JSON numbers — a delta would be taken as the whole set — and the
// campaign must still match the single-node run.
func TestWorkerAgainstCoordinatorWithoutHeld(t *testing.T) {
	const cycles = 2
	single, singleLog := runSingleNode(t, cycles)

	clk := newVClock()
	c := mustCoordinator(t, NewMemStore(), clk.Now)
	if err := c.CreateCampaign(faultSpec(2, cycles)); err != nil {
		t.Fatal(err)
	}
	inner := NewHandler(c)
	var mu sync.Mutex
	var uploads, fromNonZero int // fromNonZero: deltas or packed uploads
	tr := &memTransport{handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isUpload(r) {
			inner.ServeHTTP(w, r)
			return
		}
		up, sent := peekUpload(t, r)
		mu.Lock()
		uploads++
		if up.From != 0 || bytes.Contains(sent, []byte(`"packed"`)) {
			fromNonZero++
		}
		mu.Unlock()
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if strings.HasSuffix(r.URL.Path, "/heartbeat") && rec.Code == http.StatusOK {
			var resp heartbeatResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Error(err)
			}
			body, _ = json.Marshal(struct {
				Deadline time.Time `json:"deadline"`
			}{resp.Deadline})
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})}

	dist := runFaultCampaign(t, tr, clk)
	st, err := c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingleNode(t, st, dist, single, singleLog)
	if uploads == 0 || fromNonZero != 0 {
		t.Fatalf("%d of %d uploads sent a delta to a coordinator that never reported held", fromNonZero, uploads)
	}
}

// TestUploadGapAndRollbackKeepHeldResults checks the coordinator side
// of the delta contract: a From past the held count is refused without
// touching the shard, and a Complete whose reseed fails rolls back to
// exactly the results held before it, in memory and in the store, even
// though the failed attempt appended in place.
func TestUploadGapAndRollbackKeepHeldResults(t *testing.T) {
	clk := newVClock()
	store := NewFileStore(filepath.Join(t.TempDir(), "state"))
	c := checkedCoordinator(t, store, clk.Now)
	spec := testSpec("x")
	spec.Shards = 1
	if err := c.CreateCampaign(spec); err != nil {
		t.Fatal(err)
	}
	l, _, err := c.Acquire("x", "w")
	if err != nil || l == nil {
		t.Fatalf("acquire: %+v, %v", l, err)
	}
	addr := netaddr.MustParseAddr
	want := []netaddr.Addr{addr("198.51.100.9"), addr("198.51.100.3"), addr("198.51.100.5")}
	for i := range want {
		ren, err := c.Heartbeat("x", l.LeaseID, Upload{From: i, Responsive: want[i : i+1], Probed: uint64(4 * (i + 1))})
		if err != nil || ren.Held != i+1 {
			t.Fatalf("upload %d: %+v, %v", i, ren, err)
		}
	}
	if _, err := c.Heartbeat("x", l.LeaseID, Upload{From: 4, Probed: 13}); !errors.Is(err, ErrUploadGap) {
		t.Fatalf("gapped heartbeat err = %v, want ErrUploadGap", err)
	}
	if err := c.Complete("x", l.LeaseID, Upload{From: 5, Probed: 13}); !errors.Is(err, ErrUploadGap) {
		t.Fatalf("gapped complete err = %v, want ErrUploadGap", err)
	}
	// From 0 replaces the held results. Written over the held array in
	// place, it would corrupt the copy the rollback restores.
	bad := Upload{Responsive: []netaddr.Addr{addr("203.0.113.5")}, Probed: 64}
	if err := c.Complete("x", l.LeaseID, bad); err == nil {
		t.Fatal("complete with an un-seedable result set succeeded")
	}
	for label, co := range map[string]*Coordinator{"in-memory": c, "restarted": mustCoordinator(t, store, clk.Now)} {
		sh := co.campaigns["x"].Shards[0]
		if sh.State != shardLeased || fmt.Sprint(sh.Current) != fmt.Sprint(want) || sh.CurProbed != 12 {
			t.Fatalf("%s: shard after gaps and rollback = %s %v probed %d, want leased %v probed 12",
				label, sh.State, sh.Current, sh.CurProbed, want)
		}
	}
	good := Upload{From: 3, Responsive: []netaddr.Addr{addr("198.51.100.1")}, Probed: 64}
	if err := c.Complete("x", l.LeaseID, good); err != nil {
		t.Fatalf("retried complete: %v", err)
	}
	st, err := c.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 1 || st.History[0].Responsive != 4 || st.History[0].Probed != 64 {
		t.Fatalf("after retry: %+v", st)
	}
}

// TestStatusExpiryIsPersisted: a Status call that reclaims an expired
// lease must persist the reclaim. A successor coordinator whose clock
// lags (a failover to a host that is a few seconds behind) must report
// the same Status, not resurrect the lease from a store that trails
// memory.
func TestStatusExpiryIsPersisted(t *testing.T) {
	clk := newVClock()
	store := NewFileStore(filepath.Join(t.TempDir(), "state"))
	c := mustCoordinator(t, store, clk.Now)
	if err := c.CreateCampaign(testSpec("x")); err != nil {
		t.Fatal(err)
	}
	la, _, _ := c.Acquire("x", "a")
	lb, _, _ := c.Acquire("x", "b")
	if la == nil || lb == nil {
		t.Fatal("acquire failed")
	}
	if _, err := c.Heartbeat("x", la.LeaseID, Upload{Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.4")}, Probed: 3}); err != nil {
		t.Fatal(err)
	}
	early := clk.Now()
	clk.Advance(31 * time.Second)
	st, err := c.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.Shards {
		if sh.State != shardPending {
			t.Fatalf("shard %d still %s after expiry", sh.Index, sh.State)
		}
	}
	lagging := mustCoordinator(t, store, func() time.Time { return early })
	again, err := lagging.Status("x")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := statusJSON(t, st), statusJSON(t, again); a != b {
		t.Fatalf("restarted status differs:\n got %s\nwant %s", b, a)
	}
	// A fenced heartbeat's reclaim is persisted too.
	if _, err := c.Heartbeat("x", la.LeaseID, Upload{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("expired heartbeat err = %v", err)
	}
}

func statusJSON(t *testing.T, st *Status) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// copyFixture copies a testdata file into a fresh directory, so a
// coordinator can save over it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV1StateFixtureUpgrade loads a state file written by the v1 (JSON)
// encoder mid-campaign and carries the campaign on to the end. The
// fixture is a faultSpec(2, 3) campaign whose only worker was killed at
// its 268th probe, mid-cycle 1, after which its shard was re-leased to
// worker b; v1-midcampaign.status.json is the Status that coordinator
// reported, and v1-midcampaign.probes.json the probes made so far. The
// upgraded coordinator must report the same Status, save v2 from then
// on, and finish the campaign with every address probed exactly once.
func TestV1StateFixtureUpgrade(t *testing.T) {
	const cycles = 3
	single, singleLog := runSingleNode(t, cycles)

	path := copyFixture(t, "v1-midcampaign.state")
	golden, err := os.ReadFile(filepath.Join("testdata", "v1-midcampaign.status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want Status
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	clk := newVClock()
	clk.Advance(31 * time.Second) // the instant the fixture was written
	store := NewFileStore(path)
	c := checkedCoordinator(t, store, clk.Now)
	st, err := c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := statusJSON(t, st), statusJSON(t, &want); a != b {
		t.Fatalf("v1 fixture status:\n got %s\nwant %s", a, b)
	}

	// Saving writes v2, which reloads to the same state.
	if _, _, err := c.Acquire("camp", "probe-only"); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, stateMagic) {
		t.Fatalf("save after upgrade wrote %.12q, want v2", raw)
	}
	st, _ = c.Status("camp")
	reloaded, err := mustCoordinator(t, store, clk.Now).Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := statusJSON(t, reloaded), statusJSON(t, st); a != b {
		t.Fatalf("v2 reload status:\n got %s\nwant %s", a, b)
	}

	// The probes made before the upgrade, then the rest of the campaign.
	var before map[int][]netaddr.Addr
	pj, err := os.ReadFile(filepath.Join("testdata", "v1-midcampaign.probes.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pj, &before); err != nil {
		t.Fatal(err)
	}
	clk.Advance(31 * time.Second) // worker b and the probe-only lease never ran
	tr := &memTransport{handler: NewHandler(c)}
	dist := runFaultCampaign(t, tr, clk)
	for cycle, addrs := range before {
		for _, a := range addrs {
			dist.record(cycle, a)
		}
	}
	st, err = c.Status("camp")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingleNode(t, st, dist, single, singleLog)
}

// TestStateV2RoundTrip saves two campaigns with every persisted field
// in use — targets, exclusions, a per-AS checkpoint, an expired lease's
// base set, a live lease's unsorted delta log, a history and a final
// set — and checks a reload reproduces every field and re-encodes to
// the same bytes.
func TestStateV2RoundTrip(t *testing.T) {
	clk := newVClock()
	store := NewMemStore()
	c := checkedCoordinator(t, store, clk.Now)
	spec := testSpec("x")
	spec.Targets = []string{"198.51.100.16/28", "198.51.100.0/28"}
	spec.Exclude = []string{"198.51.100.60/30"}
	spec.Shards = 3
	if err := c.CreateCampaign(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCampaign(testSpec("y")); err != nil {
		t.Fatal(err)
	}
	addr := netaddr.MustParseAddr
	l0, _, _ := c.Acquire("x", "a")
	l1, _, _ := c.Acquire("x", "b")
	cp := &scan.Checkpoint{N: 32, Seed: 7, Shard: 1, Shards: 3, Workers: 2, Consumed: []uint64{3, 4}, ASProbed: map[uint32]uint64{64500: 2}}
	if _, err := c.Heartbeat("x", l0.LeaseID, Upload{Responsive: []netaddr.Addr{addr("198.51.100.7"), addr("198.51.100.9")}, Probed: 5}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Second)
	if _, err := c.Heartbeat("x", l1.LeaseID, Upload{Checkpoint: cp, Responsive: []netaddr.Addr{addr("198.51.100.20"), addr("198.51.100.30")}, Probed: 6, Errors: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Heartbeat("x", l1.LeaseID, Upload{Checkpoint: cp, From: 2, Responsive: []netaddr.Addr{addr("198.51.100.17"), addr("198.51.100.25")}, Probed: 9, Errors: 1}); err != nil {
		t.Fatal(err)
	}
	ly0, _, _ := c.Acquire("y", "a")
	ly1, _, _ := c.Acquire("y", "b")
	if err := c.Complete("y", ly0.LeaseID, Upload{Responsive: []netaddr.Addr{addr("198.51.100.2"), addr("198.51.100.1")}, Probed: 32}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("y", ly1.LeaseID, Upload{Responsive: []netaddr.Addr{addr("198.51.100.40")}, Probed: 32}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(15 * time.Second) // l0 expires into shard 0's base; l1 lives
	if _, _, err := c.Acquire("x", "c"); err != nil {
		t.Fatal(err)
	}
	saved, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustCoordinator(t, store, clk.Now)
	if a, b := stateDump(t, c2), stateDump(t, c); a != b {
		t.Fatalf("reloaded state differs:\n got %s\nwant %s", a, b)
	}
	if got := c2.encodeState(); !bytes.Equal(got, saved) {
		t.Fatal("re-encoding the reloaded state changed the bytes")
	}
	if cur := c.campaigns["x"].Shards[1].Current; len(cur) != 4 || cur[2] != addr("198.51.100.17") {
		t.Fatalf("live lease log = %v, want the two uploads in arrival order", cur)
	}
}

// TestStateDecodeRefusesDamage: every truncation of a v2 blob, and a
// future version, is refused with an error (never a panic or a
// half-loaded coordinator). MemStore has no checksum, so the decoder
// itself is what stands between a damaged blob and the state machine.
func TestStateDecodeRefusesDamage(t *testing.T) {
	store := NewMemStore()
	c := mustCoordinator(t, store, newVClock().Now)
	if err := c.CreateCampaign(testSpec("x")); err != nil {
		t.Fatal(err)
	}
	l, _, _ := c.Acquire("x", "a")
	if _, err := c.Heartbeat("x", l.LeaseID, Upload{Responsive: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.7")}}); err != nil {
		t.Fatal(err)
	}
	good, _ := store.Load()
	for n := 0; n < len(good); n++ {
		if err := store.Save(good[:n]); err != nil {
			t.Fatal(err)
		}
		if _, err := NewCoordinator(store, nil); err == nil {
			t.Fatalf("blob truncated to %d of %d bytes loaded", n, len(good))
		}
	}
	future := append([]byte("TASSCRD3"), good[len(stateMagic):]...)
	store.Save(future)
	if _, err := NewCoordinator(store, nil); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future version err = %v", err)
	}
}

// TestUploadPackedWire: a packed upload travels as delta-varints and
// decodes to the same addresses in the same order, wrap-around
// included; an upload carrying both forms is refused.
func TestUploadPackedWire(t *testing.T) {
	addr := netaddr.MustParseAddr
	up := Upload{From: 3, Responsive: []netaddr.Addr{addr("10.0.0.9"), addr("255.255.255.255"), addr("0.0.0.1"), addr("10.0.0.2")}, Probed: 7, packed: true}
	body, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte(`"responsive"`)) || !bytes.Contains(body, []byte(`"packed"`)) {
		t.Fatalf("packed upload on the wire: %s", body)
	}
	var got Upload
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || got.Probed != 7 || fmt.Sprint(got.Responsive) != fmt.Sprint(up.Responsive) {
		t.Fatalf("decoded %+v, want %+v", got, up)
	}
	both := []byte(`{"responsive":[1],"packed":"AQ=="}`)
	if err := json.Unmarshal(both, &got); err == nil {
		t.Fatal("upload with both forms accepted")
	}
	if err := json.Unmarshal([]byte(`{"packed":"gA=="}`), &got); err == nil {
		t.Fatal("truncated packed list accepted")
	}
}
