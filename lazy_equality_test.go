package tass_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/tass-scan/tass"
	"github.com/tass-scan/tass/internal/mmapfile"
)

// snapshotBackings returns one census under the three storage backings
// of the lazy snapshot stack: the eager in-memory snapshot, a lazy
// snapshot whose blocks fault in by pread, and a lazy snapshot over a
// memory mapping. Everything downstream — counting, ranking, selection,
// campaigns — must be byte-identical across the three.
func snapshotBackings(t *testing.T, eager *tass.Snapshot) map[string]*tass.Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "census.snap2")
	if err := tass.WriteSnapshotFile(path, eager); err != nil {
		t.Fatal(err)
	}
	if err := tass.VerifySnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	open := func(disableMmap bool) *tass.Snapshot {
		mmapfile.DisableMmap = disableMmap
		defer func() { mmapfile.DisableMmap = false }()
		snap, err := tass.OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Lazy() {
			t.Fatal("opened snapshot is not lazy")
		}
		t.Cleanup(func() { snap.Close() })
		return snap
	}
	return map[string]*tass.Snapshot{
		"eager": eager,
		"pread": open(true),
		"mmap":  open(false),
	}
}

// sameSelection compares every exported field of two selections,
// including the full ranked order.
func sameSelection(a, b *tass.Selection) bool {
	return a.K == b.K && a.SeedHosts == b.SeedHosts &&
		a.HostCoverage == b.HostCoverage && a.Space == b.Space &&
		a.SpaceBits == b.SpaceBits && a.SpaceShare == b.SpaceShare &&
		slices.Equal(a.Ranked, b.Ranked)
}

// TestLazyGoldenEquality is the acceptance suite of the lazy census
// stack: rank, select, and incremental-selector outputs are
// byte-identical across the eager, pread-lazy, and mmap-lazy backings,
// for seeds 1–3 and worker counts 1/2/8.
func TestLazyGoldenEquality(t *testing.T) {
	opts := tass.Options{Phi: 0.95}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			u, err := tass.GenerateUniverse(tass.ScaledUniverseConfig(seed, 0.004))
			if err != nil {
				t.Fatal(err)
			}
			proto := u.Protocols()[0]
			series := tass.SimulateMonths(u, seed, 2)[proto]
			eager, next := series.At(0), series.At(1)
			universe := u.More
			backings := snapshotBackings(t, eager)

			wantRank := tass.Rank(eager, universe)
			wantDelta := tass.DeltaOf(eager, next)
			for name, snap := range backings {
				if got := tass.Rank(snap, universe); !slices.Equal(got, wantRank) {
					t.Errorf("%s: Rank diverges", name)
				}
				// Diff off a lazy backing (materializes a view internally).
				if d := tass.DeltaOf(snap, next); !slices.Equal(d.Born, wantDelta.Born) ||
					!slices.Equal(d.Died, wantDelta.Died) {
					t.Errorf("%s: DeltaOf diverges", name)
				}
			}

			for _, workers := range []int{1, 2, 8} {
				wantSel, err := tass.SelectCached(eager, universe, opts, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				for name, snap := range backings {
					sel, err := tass.SelectCached(snap, universe, opts, workers, tass.NewCountCache())
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if !sameSelection(sel, wantSel) {
						t.Errorf("%s workers=%d: SelectCached diverges", name, workers)
					}

					// The incremental selector seeded from this backing must
					// select identically, before and after applying a delta.
					inc, err := tass.NewIncrementalSelector(snap, universe, workers, nil)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if sel0, err := inc.Select(opts); err != nil || !sameSelection(sel0, wantSel) {
						t.Errorf("%s workers=%d: seeded incremental select diverges (%v)", name, workers, err)
					}
					if err := inc.Apply(wantDelta); err != nil {
						t.Fatal(err)
					}
					wantNext, err := tass.SelectCached(next, universe, opts, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sel1, err := inc.Select(opts); err != nil || !sameSelection(sel1, wantNext) {
						t.Errorf("%s workers=%d: post-delta incremental select diverges (%v)", name, workers, err)
					}
				}
			}
		})
	}
}

// TestCampaignSeedSnapshotBackings runs the scan-in-the-loop campaign
// seeded from a census snapshot and checks that every cycle — plans,
// probe reports, snapshots, selections — is identical whichever backing
// the seed snapshot uses, at every worker count.
func TestCampaignSeedSnapshotBackings(t *testing.T) {
	var pfx []tass.Prefix
	for i := 0; i < 4; i++ {
		p, err := tass.ParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))
		if err != nil {
			t.Fatal(err)
		}
		pfx = append(pfx, p)
	}
	universe, err := tass.NewPartition(pfx)
	if err != nil {
		t.Fatal(err)
	}
	var live, seedAddrs []tass.Addr
	base, _ := tass.ParseAddr("10.0.0.0")
	for i := 0; i < 100; i++ { // two dense /24s
		live = append(live, base+tass.Addr(i*2), base+tass.Addr(2<<8)+tass.Addr(i*2))
	}
	live = append(live, base+tass.Addr(1<<8)+77, base+tass.Addr(3<<8)+99)
	// The seed census saw most, not all, of the live set (and one host
	// that since died) — the realistic stale-archive seed.
	seedAddrs = append(seedAddrs, live[:150]...)
	seedAddrs = append(seedAddrs, base+tass.Addr(3<<8)+200)
	eagerSeed := tass.NewSnapshot("census", 0, seedAddrs)
	backings := snapshotBackings(t, eagerSeed)

	run := func(seed *tass.Snapshot, workers int) []tass.ScanCycle {
		prober, err := tass.NewSimProber(live, 0.1, 7) // deterministic loss
		if err != nil {
			t.Fatal(err)
		}
		c := &tass.ScanCampaign{
			Universe:     universe,
			SeedSnapshot: seed,
			Prober:       prober,
			Opts:         tass.Options{Phi: 0.9},
			Workers:      workers,
			Seed:         11,
			Protocol:     "t",
		}
		cycles, err := c.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}

	for _, workers := range []int{1, 2, 8} {
		want := run(backings["eager"], workers)
		// The seed selection replaced the cycle-0 full-universe scan.
		if want[0].Plan.AddressCount() >= universe.AddressCount() {
			t.Fatalf("seeded campaign still scanned the full universe (%d addrs)",
				want[0].Plan.AddressCount())
		}
		for _, name := range []string{"pread", "mmap"} {
			got := run(backings[name], workers)
			if len(got) != len(want) {
				t.Fatalf("%s: %d cycles, want %d", name, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if !slices.Equal(g.Plan.Prefixes(), w.Plan.Prefixes()) {
					t.Errorf("%s workers=%d cycle %d: plan diverges", name, workers, i)
				}
				if !slices.Equal(g.Snapshot.Addrs, w.Snapshot.Addrs) {
					t.Errorf("%s workers=%d cycle %d: snapshot diverges", name, workers, i)
				}
				if !sameSelection(g.Selection, w.Selection) {
					t.Errorf("%s workers=%d cycle %d: selection diverges", name, workers, i)
				}
			}
		}
	}
}
