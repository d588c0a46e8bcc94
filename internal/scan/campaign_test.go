package scan

import (
	"context"
	"slices"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// campaignFixture: a universe of four /24s where hosts live almost
// entirely in two of them — the shape TASS exploits.
func campaignFixture(t *testing.T) (rib.Partition, []netaddr.Addr) {
	t.Helper()
	uni, err := rib.NewPartition([]netaddr.Prefix{
		pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.2.0/24"), pfx("10.0.3.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var live []netaddr.Addr
	for i := 0; i < 100; i++ { // dense /24s
		live = append(live, netaddr.MustParseAddr("10.0.0.0")+netaddr.Addr(i*2))
		live = append(live, netaddr.MustParseAddr("10.0.2.0")+netaddr.Addr(i*2))
	}
	live = append(live, netaddr.MustParseAddr("10.0.1.77")) // stragglers
	live = append(live, netaddr.MustParseAddr("10.0.3.99"))
	return uni, live
}

// TestCampaignFeedbackTightensPlan runs the scan→census→select loop and
// checks that cycle 0's full scan seeds a selection that shrinks the
// plan, and that later cycles keep finding the covered hosts.
func TestCampaignFeedbackTightensPlan(t *testing.T) {
	uni, live := campaignFixture(t)
	prober, err := NewSimProber(live, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Universe: uni,
		Prober:   prober,
		Opts:     core.Options{Phi: 0.9},
		Workers:  4,
		Seed:     5,
		Protocol: "test",
	}
	cycles, err := c.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 3 {
		t.Fatalf("%d cycles, want 3", len(cycles))
	}

	c0 := cycles[0]
	if c0.Plan.AddressCount() != uni.AddressCount() {
		t.Errorf("cycle 0 scanned %d addresses, want the full universe %d",
			c0.Plan.AddressCount(), uni.AddressCount())
	}
	if c0.Report.Probed != uni.AddressCount() {
		t.Errorf("cycle 0 probed %d, want %d", c0.Report.Probed, uni.AddressCount())
	}
	if c0.Snapshot.Hosts() != len(live) {
		t.Errorf("lossless seed scan found %d hosts, want %d", c0.Snapshot.Hosts(), len(live))
	}

	// The feedback: cycles 1+ scan the tightened selection (the two
	// dense /24s cover 200/202 hosts > φ=0.9).
	for _, cy := range cycles[1:] {
		if cy.Plan.AddressCount() >= uni.AddressCount() {
			t.Errorf("cycle %d plan did not tighten: %d addresses", cy.Index, cy.Plan.AddressCount())
		}
		if cy.Plan.Len() != 2 {
			t.Errorf("cycle %d plan has %d prefixes, want the 2 dense /24s", cy.Index, cy.Plan.Len())
		}
		if cy.Report.Probed != cy.Plan.AddressCount() {
			t.Errorf("cycle %d probed %d of a %d-address plan", cy.Index, cy.Report.Probed, cy.Plan.AddressCount())
		}
		if cy.Snapshot.Hosts() != 200 {
			t.Errorf("cycle %d found %d hosts inside the selection, want 200", cy.Index, cy.Snapshot.Hosts())
		}
	}

	// Evaluation helpers.
	truth := census.NewSnapshot("test", 0, live)
	if hr := cycles[1].Hitrate(truth); hr < 0.98*200/202.0 || hr > 1 {
		t.Errorf("cycle 1 hitrate vs truth = %v", hr)
	}
	if cs := cycles[1].CostShare(uni); cs != 0.5 {
		t.Errorf("cycle 1 cost share = %v, want 0.5 (2 of 4 /24s)", cs)
	}
}

// TestCampaignDeterministicAcrossWorkers: the cycles' snapshots and
// selections are identical at any worker count — the golden-equality
// property the scan-in-the-loop experiment relies on.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	uni, live := campaignFixture(t)
	run := func(workers int) []Cycle {
		prober, err := NewSimProber(live, 0.2, 11) // lossy, deterministic per address
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{
			Universe: uni,
			Prober:   prober,
			Opts:     core.Options{Phi: 0.95},
			Workers:  workers,
			Seed:     13,
		}
		cycles, err := c.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	golden := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range golden {
			g, h := golden[i], got[i]
			if len(g.Snapshot.Addrs) != len(h.Snapshot.Addrs) {
				t.Fatalf("workers=%d cycle %d: %d vs %d hosts", workers, i, len(h.Snapshot.Addrs), len(g.Snapshot.Addrs))
			}
			for j := range g.Snapshot.Addrs {
				if g.Snapshot.Addrs[j] != h.Snapshot.Addrs[j] {
					t.Fatalf("workers=%d cycle %d addr %d differs", workers, i, j)
				}
			}
			if g.Selection.K != h.Selection.K || g.Selection.Space != h.Selection.Space {
				t.Fatalf("workers=%d cycle %d: selection K=%d space=%d, want K=%d space=%d",
					workers, i, h.Selection.K, h.Selection.Space, g.Selection.K, g.Selection.Space)
			}
		}
	}
}

// TestCampaignIncrementalGoldenEquality: every cycle's selection,
// drawn from the ranking each cycle's scan-result delta repairs, is
// byte-identical to a full SelectCached of that cycle's snapshot —
// header, complete ranking and partition — and is the plan the next
// cycle scans, including under probe loss, which makes every cycle's
// responsive set churn.
func TestCampaignIncrementalGoldenEquality(t *testing.T) {
	uni, live := campaignFixture(t)
	opts := core.Options{Phi: 0.9}
	for _, loss := range []float64{0, 0.25} {
		for _, workers := range []int{1, 2, 8} {
			prober, err := NewSimProber(live, loss, 17)
			if err != nil {
				t.Fatal(err)
			}
			c := &Campaign{Universe: uni, Prober: prober, Opts: opts, Workers: workers, Seed: 23}
			cycles, err := c.Run(context.Background(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, cy := range cycles {
				full, err := core.SelectCached(cy.Snapshot, uni, opts, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := cy.Selection
				if got.K != full.K || got.SeedHosts != full.SeedHosts || got.Space != full.Space ||
					got.HostCoverage != full.HostCoverage || got.SpaceShare != full.SpaceShare {
					t.Fatalf("loss=%v workers=%d cycle %d: selection header diverged", loss, workers, i)
				}
				if !slices.Equal(got.Ranked, full.Ranked) {
					t.Fatalf("loss=%v workers=%d cycle %d: ranking diverged", loss, workers, i)
				}
				if !slices.Equal(got.Partition().Prefixes(), full.Partition().Prefixes()) {
					t.Fatalf("loss=%v workers=%d cycle %d: selected partition diverged", loss, workers, i)
				}
				if i+1 < len(cycles) && !slices.Equal(cycles[i+1].Plan.Prefixes(), full.Partition().Prefixes()) {
					t.Fatalf("loss=%v workers=%d cycle %d: next plan is not the selection", loss, workers, i)
				}
			}
		}
	}
}

// TestCampaignProberAt steps the prober per cycle (the churning-truth
// hook the experiment uses).
func TestCampaignProberAt(t *testing.T) {
	uni, live := campaignFixture(t)
	calls := make([]int, 0, 2)
	c := &Campaign{
		Universe: uni,
		ProberAt: func(cycle int) Prober {
			calls = append(calls, cycle)
			p, _ := NewSimProber(live, 0, int64(cycle+1))
			return p
		},
		Opts: core.Options{Phi: 0.9},
		Seed: 2,
	}
	if _, err := c.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 0 || calls[1] != 1 {
		t.Errorf("ProberAt called with %v, want [0 1]", calls)
	}
}

func TestCampaignValidation(t *testing.T) {
	uni, live := campaignFixture(t)
	prober, _ := NewSimProber(live, 0, 1)
	if _, err := (&Campaign{Prober: prober}).Run(context.Background(), 1); err == nil {
		t.Error("campaign without universe accepted")
	}
	if _, err := (&Campaign{Universe: uni}).Run(context.Background(), 1); err == nil {
		t.Error("campaign without prober accepted")
	}
	if _, err := (&Campaign{Universe: uni, Prober: prober}).Run(context.Background(), 0); err == nil {
		t.Error("zero cycles accepted")
	}

	// A scan that finds nothing cannot seed a selection: the campaign
	// surfaces the error with the cycles completed so far.
	dead, _ := NewSimProber(nil, 0, 1)
	cycles, err := (&Campaign{Universe: uni, Prober: dead, Opts: core.Options{Phi: 0.9}}).Run(context.Background(), 2)
	if err == nil {
		t.Error("empty scan seeded a selection")
	}
	if len(cycles) != 0 {
		t.Errorf("%d cycles returned from a failed seed scan", len(cycles))
	}
}
