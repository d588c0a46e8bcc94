package faultfs_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/faultfs"
	"github.com/tass-scan/tass/internal/fsck"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

// The chaos suite: every test sweeps deterministic single-bit flips over
// a valid on-disk artifact and asserts the stack's corruption contract —
// no code path panics, damage surfaces as a typed error or a degraded
// (and reported) result, and `tass fsck -repair` always converges to a
// verifiable file or a whole-file quarantine. A failing case is pinned
// by its bit offset alone.

func chaosSnapshot(t *testing.T, hosts int) *census.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(1701))
	addrs := make([]netaddr.Addr, 0, hosts)
	v := uint32(10 << 24)
	for len(addrs) < hosts {
		v += 1 + uint32(rng.Intn(300))
		addrs = append(addrs, netaddr.Addr(v))
	}
	return census.NewSnapshot("https", 7, addrs)
}

// noPanic runs f, converting a panic into a test failure naming the case.
func noPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", label, r)
		}
	}()
	f()
}

func TestChaosSnapshotBitSweep(t *testing.T) {
	snap := chaosSnapshot(t, 2500)
	dir := t.TempDir()
	path := filepath.Join(dir, "census.snap")
	if err := census.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, bit := range faultfs.SweepBits(int64(len(raw)), 256, 1) {
		label := fmt.Sprintf("bit %d", bit)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		noPanic(t, label, func() {
			// Reading the damaged file never panics: open either refuses
			// (typed error) or degrades around the damage and reports it.
			if s, err := census.OpenSnapshotFile(path); err == nil {
				s.SetFaultPolicy(addrset.Degrade)
				got := s.Set().AppendTo(nil)
				if len(got) > snap.Hosts() {
					t.Fatalf("%s: degraded read invented %d addresses", label, len(got)-snap.Hosts())
				}
				if len(got) < snap.Hosts() && len(s.StorageFaults()) == 0 {
					t.Fatalf("%s: %d addresses lost without a recorded fault", label, snap.Hosts()-len(got))
				}
				s.Close()
			}

			// fsck -repair converges: afterwards the path either verifies
			// end to end or was quarantined whole.
			res, err := fsck.Repair(path)
			if err != nil {
				t.Fatalf("%s: fsck repair: %v", label, err)
			}
			if _, err := os.Stat(path); err == nil {
				if verr := census.VerifySnapshotFile(path); verr != nil {
					t.Fatalf("%s: post-repair file fails verify: %v (fsck said %+v)", label, verr, res)
				}
			} else if res.QuarantinePath == "" {
				t.Fatalf("%s: file gone without a quarantine path", label)
			}
		})
		// Clear quarantine sidecars so the next case starts clean.
		os.Remove(path + ".quarantine")
	}
}

func TestChaosCheckpointBitSweep(t *testing.T) {
	cp := &scan.Checkpoint{
		N: 100000, Seed: 99, Shard: 1, Shards: 4, Workers: 2,
		Consumed: []uint64{1234, 5678},
		ASProbed: map[uint32]uint64{64500: 42},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.checkpoint")
	if err := scan.WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, bit := range faultfs.SweepBits(int64(len(raw)), 2048, 2) {
		label := fmt.Sprintf("bit %d", bit)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		noPanic(t, label, func() {
			// A flipped cursor file must never load as a different cursor:
			// either the checksum (or parse) refuses it, or — for flips
			// the format provably cannot hide — the load fails.
			if got, err := scan.ReadCheckpointFile(path); err == nil {
				if got.N != cp.N || got.Seed != cp.Seed || got.Shard != cp.Shard ||
					got.Workers != cp.Workers || len(got.Consumed) != len(cp.Consumed) {
					t.Fatalf("%s: corrupted checkpoint loaded as a different cursor: %+v", label, got)
				}
			}
			if _, err := fsck.Repair(path); err != nil {
				t.Fatalf("%s: fsck repair: %v", label, err)
			}
			// Post-repair the path is either loadable or quarantined whole.
			if _, err := os.Stat(path); err == nil {
				if _, lerr := scan.ReadCheckpointFile(path); lerr != nil {
					t.Fatalf("%s: post-repair checkpoint unreadable: %v", label, lerr)
				}
			} else if _, qerr := os.Stat(path + ".quarantine"); qerr != nil {
				t.Fatalf("%s: file gone without quarantine", label)
			}
		})
		os.Remove(path + ".quarantine")
	}
}

// chaosCoordState drives a coordinator over a FileStore at path into
// the middle of a campaign — one cycle completed, an expired lease
// folded into its shard's base set, live leases holding delta-uploaded
// results and a checkpoint — and returns the clock it stopped at with
// the Status it reports there.
func chaosCoordState(t *testing.T, path string) (func() time.Time, string) {
	t.Helper()
	clock := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	co, err := coord.NewCoordinator(coord.NewFileStore(path), now)
	if err != nil {
		t.Fatal(err)
	}
	spec := coord.CampaignSpec{
		ID:       "chaos",
		Universe: []string{"203.0.113.0/26", "203.0.113.64/26", "203.0.113.128/26", "203.0.113.192/26"},
		Phi:      0.9,
		Cycles:   3,
		Shards:   3,
		Workers:  1,
		LeaseTTL: 30 * time.Second,
	}
	if err := co.CreateCampaign(spec); err != nil {
		t.Fatal(err)
	}
	acquire := func(worker string) *coord.Lease {
		l, _, err := co.Acquire("chaos", worker)
		if err != nil || l == nil {
			t.Fatalf("acquire: %+v, %v", l, err)
		}
		return l
	}
	heartbeat := func(l *coord.Lease, up coord.Upload) {
		if _, err := co.Heartbeat("chaos", l.LeaseID, up); err != nil {
			t.Fatal(err)
		}
	}
	a := func(i int) netaddr.Addr { return netaddr.MustParseAddr("203.0.113.0") + netaddr.Addr(i) }
	for i := 0; i < 3; i++ {
		l := acquire("w")
		if err := co.Complete("chaos", l.LeaseID, coord.Upload{Responsive: []netaddr.Addr{a(3 * i), a(3*i + 1), a(70 + i)}, Probed: 85}); err != nil {
			t.Fatal(err)
		}
	}
	cp := func(l *coord.Lease, consumed uint64) *scan.Checkpoint {
		return &scan.Checkpoint{N: 128, Seed: l.Seed, Shard: l.Shard, Shards: l.Shards, Workers: 1, Consumed: []uint64{consumed}}
	}
	la, lb, lc := acquire("a"), acquire("b"), acquire("c")
	heartbeat(lb, coord.Upload{Checkpoint: cp(lb, 9), Responsive: []netaddr.Addr{a(11), a(5)}, Probed: 9})
	clock = clock.Add(20 * time.Second)
	heartbeat(la, coord.Upload{Checkpoint: cp(la, 16), Responsive: []netaddr.Addr{a(2), a(9)}, Probed: 16})
	heartbeat(la, coord.Upload{Checkpoint: cp(la, 32), From: 2, Responsive: []netaddr.Addr{a(1), a(30), a(31)}, Probed: 32})
	heartbeat(lc, coord.Upload{Checkpoint: cp(lc, 7), Responsive: []netaddr.Addr{a(20)}, Probed: 7, Errors: 1})
	clock = clock.Add(15 * time.Second) // b's lease lapses; a's and c's live
	ld := acquire("d")
	heartbeat(ld, coord.Upload{Checkpoint: cp(ld, 12), Responsive: []netaddr.Addr{a(40)}, Probed: 3})
	st, err := co.Status("chaos")
	if err != nil {
		t.Fatal(err)
	}
	return now, statusJSON(t, st)
}

func statusJSON(t *testing.T, st *coord.Status) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChaosCoordStateBitSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.state")
	now, status := chaosCoordState(t, path)
	payload, err := coord.NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, bit := range faultfs.SweepBits(int64(len(raw)), 2048, 3) {
		label := fmt.Sprintf("bit %d", bit)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		noPanic(t, label, func() {
			// The checksummed header must refuse every flip that changes
			// the payload; header flips fail their own parse.
			if got, err := coord.NewFileStore(path).Load(); err == nil {
				if string(got) != string(payload) {
					t.Fatalf("%s: corrupted state loaded as different payload: %q", label, got)
				}
				// A load that succeeds is the pre-flip campaign.
				co, err := coord.NewCoordinator(coord.NewFileStore(path), now)
				if err != nil {
					t.Fatalf("%s: coordinator over a verified state: %v", label, err)
				}
				st, err := co.Status("chaos")
				if err != nil {
					t.Fatalf("%s: status: %v", label, err)
				}
				if got := statusJSON(t, st); got != status {
					t.Fatalf("%s: loaded status %s, want %s", label, got, status)
				}
			}
			if _, err := fsck.Repair(path); err != nil {
				t.Fatalf("%s: fsck repair: %v", label, err)
			}
			if _, err := os.Stat(path); err == nil {
				if _, lerr := coord.NewFileStore(path).Load(); lerr != nil {
					t.Fatalf("%s: post-repair state unreadable: %v", label, lerr)
				}
			} else if _, qerr := os.Stat(path + ".quarantine"); qerr != nil {
				t.Fatalf("%s: file gone without quarantine", label)
			}
		})
		os.Remove(path + ".quarantine")
	}
}

// findBlockZeroFlip scans candidate bit offsets of the snapshot file at
// path for one whose flip lands in block 0's payload: the index still
// parses (open succeeds) and the deep check blames block 0. The file is
// restored before returning; the search is deterministic for fixed file
// bytes.
func findBlockZeroFlip(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	for off := int64(9); off < int64(len(raw)); off += 7 {
		bit := off * 8
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		s, err := census.OpenSnapshotFile(path)
		if err != nil {
			continue
		}
		cerr := s.Set().CheckBlocks()
		s.Close()
		var be *addrset.BlockError
		if errors.As(cerr, &be) && be.Block == 0 {
			return bit
		}
	}
	t.Fatal("no candidate flip lands in block 0's payload")
	return 0
}

// damagedSnapshotFile writes a snapshot file with one bit flipped in
// block 0's payload and returns its path together with a /20 grid over
// the populated span: prefix boundaries land inside payload blocks, so
// counting decodes them instead of trusting the directory.
func damagedSnapshotFile(t *testing.T) (string, *census.Snapshot, rib.Partition) {
	t.Helper()
	snap := chaosSnapshot(t, 4000)
	path := filepath.Join(t.TempDir(), "census.snap")
	if err := census.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	// The index stays trusted; the block fails its checksum.
	if err := faultfs.FlipBit(path, findBlockZeroFlip(t, path)); err != nil {
		t.Fatal(err)
	}
	last := snap.Addrs[len(snap.Addrs)-1]
	var pfx []netaddr.Prefix
	for base := uint32(10 << 24); netaddr.Addr(base) <= last; base += 1 << 12 {
		pfx = append(pfx, netaddr.MustPrefixFrom(netaddr.Addr(base), 20))
	}
	part, err := rib.NewPartition(pfx)
	if err != nil {
		t.Fatal(err)
	}
	return path, snap, part
}

// TestSelectionOverDamagedSnapshot drives the top of the stack: target
// selection over a lazily-read snapshot with a damaged payload block
// fails loudly under FailFast and completes (reporting the skipped
// block) under Degrade.
func TestSelectionOverDamagedSnapshot(t *testing.T) {
	path, _, part := damagedSnapshotFile(t)

	failfast, err := census.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer failfast.Close()
	if _, err := core.SelectCached(failfast, part, core.Options{Phi: 1}, 2, census.NewCountCache()); err == nil {
		t.Fatal("selection over damaged snapshot succeeded under FailFast")
	}

	degraded, err := census.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer degraded.Close()
	degraded.SetFaultPolicy(addrset.Degrade)
	sel, err := core.SelectCached(degraded, part, core.Options{Phi: 1}, 2, census.NewCountCache())
	if err != nil {
		t.Fatalf("degraded selection failed: %v", err)
	}
	if sel == nil || len(sel.Prefixes()) == 0 {
		t.Fatal("degraded selection selected nothing")
	}
	if len(degraded.StorageFaults()) == 0 {
		t.Fatal("degraded selection reported no storage faults")
	}
}

// TestCampaignSeedOverDamagedSnapshot: a campaign seeded from a lazy
// census with a damaged block refuses to plan by default, returning the
// typed block error; with DegradedReads it plans from the intact blocks
// exactly as a degraded SelectCached does and reports every fault.
func TestCampaignSeedOverDamagedSnapshot(t *testing.T) {
	path, snap, part := damagedSnapshotFile(t)
	open := func() *census.Snapshot {
		s, err := census.OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	prober, err := scan.NewSimProber(snap.Addrs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Phi: 0.5}
	var faults []addrset.BlockError
	campaign := func(degraded bool) *scan.Campaign {
		return &scan.Campaign{
			Universe:       part,
			SeedSnapshot:   open(),
			DegradedReads:  degraded,
			OnStorageFault: func(f addrset.BlockError) { faults = append(faults, f) },
			Prober:         prober,
			Opts:           opts,
			Workers:        2,
		}
	}

	_, err = campaign(false).Run(context.Background(), 1)
	var be *addrset.BlockError
	if !errors.As(err, &be) {
		t.Fatalf("campaign over a damaged seed returned %v, want a block error", err)
	}

	faults = nil
	cycles, err := campaign(true).Run(context.Background(), 1)
	if err != nil {
		t.Fatalf("degraded campaign failed: %v", err)
	}
	if len(faults) == 0 {
		t.Fatal("degraded campaign reported no storage faults")
	}
	ref := open()
	ref.SetFaultPolicy(addrset.Degrade)
	want, err := core.SelectCached(ref, part, opts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cycles[0].Plan.Prefixes(), want.Partition().Prefixes()) {
		t.Fatal("degraded seed plan differs from a degraded SelectCached")
	}
}

// TestCampaignSeedOverDamagedInteriorBlock: a damaged block that lies
// wholly inside one universe prefix is never decoded while counting the
// lazy seed — the file's index supplies its hosts — so planning from
// the seed succeeds under both fault policies. Every cycle after it
// must still select exactly what SelectCached selects from that cycle's
// snapshot: the campaign may not reach the damaged block through a
// later read and silently lose its hosts there.
func TestCampaignSeedOverDamagedInteriorBlock(t *testing.T) {
	path, snap, _ := damagedSnapshotFile(t)
	// One /14 swallows block 0 whole; /20s cover the rest of the span.
	pfx := []netaddr.Prefix{netaddr.MustPrefixFrom(netaddr.Addr(10<<24), 14)}
	last := snap.Addrs[len(snap.Addrs)-1]
	for base := uint32(10<<24 + 1<<18); netaddr.Addr(base) <= last; base += 1 << 12 {
		pfx = append(pfx, netaddr.MustPrefixFrom(netaddr.Addr(base), 20))
	}
	part, err := rib.NewPartition(pfx)
	if err != nil {
		t.Fatal(err)
	}
	prober, err := scan.NewSimProber(snap.Addrs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Phi: 0.5}
	for _, degraded := range []bool{false, true} {
		seed, err := census.OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer seed.Close()
		var faults []addrset.BlockError
		c := &scan.Campaign{
			Universe:       part,
			SeedSnapshot:   seed,
			DegradedReads:  degraded,
			OnStorageFault: func(f addrset.BlockError) { faults = append(faults, f) },
			Prober:         prober,
			Opts:           opts,
			Workers:        2,
		}
		cycles, err := c.Run(context.Background(), 3)
		if err != nil {
			t.Fatalf("degraded=%v: campaign failed: %v", degraded, err)
		}
		if len(faults) != 0 {
			t.Fatalf("degraded=%v: counting the seed decoded the damaged block (%d faults); the test needs it counted from the index", degraded, len(faults))
		}
		ref, err := census.OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		seedSel, err := core.SelectCached(ref, part, opts, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(cycles[0].Plan.Prefixes(), seedSel.Partition().Prefixes()) {
			t.Fatalf("degraded=%v: seed plan differs from SelectCached of the seed", degraded)
		}
		for _, cy := range cycles {
			want, err := core.SelectCached(cy.Snapshot, part, opts, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := cy.Selection
			if got.K != want.K || got.SeedHosts != want.SeedHosts || got.Space != want.Space ||
				!slices.Equal(got.Ranked, want.Ranked) ||
				!slices.Equal(got.Partition().Prefixes(), want.Partition().Prefixes()) {
				t.Fatalf("degraded=%v cycle %d: selection K=%d N=%d space=%d, SelectCached K=%d N=%d space=%d",
					degraded, cy.Index, got.K, got.SeedHosts, got.Space, want.K, want.SeedHosts, want.Space)
			}
		}
		if err := seed.StorageErr(); err != nil {
			t.Fatalf("degraded=%v: the campaign read the damaged block after planning from the seed: %v", degraded, err)
		}
	}
}
