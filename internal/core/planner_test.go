package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
)

// TestPlannerMatchesFullRecompute: every Plan — the counted first one,
// repairs from a native delta, repairs from the planner's own diff, and
// repairs across skipped months — is byte-identical to SelectCached on
// the same snapshot, across seeds, worker counts and option shapes.
func TestPlannerMatchesFullRecompute(t *testing.T) {
	part := incPartition(t)
	grids := []Options{{Phi: 0.95}, {Phi: 0.5, MinDensity: 1e-4}, {Phi: 0.99, MaxPrefixes: 40}}
	for seed := int64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 2, 8} {
			for _, opts := range grids {
				rng := rand.New(rand.NewSource(seed))
				p, err := NewPlanner(part, opts, workers, census.NewCountCache())
				if err != nil {
					t.Fatal(err)
				}
				snap := incSnapshot(rng, 0, 4000)
				planned := snap
				for month := 0; month <= 8; month++ {
					if month > 0 {
						snap = churnSnapshot(rng, snap, month, 0.02+0.1*rng.Float64())
					}
					if month%3 == 2 {
						continue // a month without a plan: the next one spans two
					}
					var d *census.Delta
					if month%2 == 1 && planned.Month == month-1 {
						d = planned.Diff(snap)
					}
					got, err := p.Plan(snap, d)
					if err != nil {
						t.Fatal(err)
					}
					planned = snap
					want, err := SelectCached(snap, part, opts, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualSelections(t, fmt.Sprintf("seed %d workers %d month %d", seed, workers, month), got, want)
				}
			}
		}
	}
}

// TestPlannerStateAfterFailure: a failed Plan leaves the ranking on the
// last snapshot it accepted, so the next Plan still matches the full
// recompute. This is what the coordinator's roll-back-and-retry of a
// failed reseed relies on.
func TestPlannerStateAfterFailure(t *testing.T) {
	part := incPartition(t)
	opts := Options{Phi: 0.95}
	rng := rand.New(rand.NewSource(6))
	s1 := incSnapshot(rng, 0, 2000)
	p, err := NewPlanner(part, opts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(s1, nil); err != nil {
		t.Fatal(err)
	}
	// Block 550 lies past the universe's 512 /20s: no host inside.
	outside := census.NewSnapshot("x", 1, []netaddr.Addr{netaddr.Addr(1<<28 + 550<<12)})
	if _, err := p.Plan(outside, nil); err == nil {
		t.Fatal("snapshot with no hosts inside the universe planned without error")
	}
	s2 := churnSnapshot(rng, s1, 2, 0.1)
	got, err := p.Plan(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectCached(s2, part, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSelections(t, "after a failed plan", got, want)

	// A native delta that does not lead from s2 to s3 is refused and
	// changes nothing.
	s3 := churnSnapshot(rng, s2, 3, 0.1)
	d := s2.Diff(s3)
	for _, bad := range []census.Delta{
		{Protocol: "x", FromMonth: 1, ToMonth: 3},
		{Protocol: "x", FromMonth: 2, ToMonth: 4},
		{Protocol: "y", FromMonth: 2, ToMonth: 3},
	} {
		bad.Born, bad.Died = d.Born, d.Died
		if _, err := p.Plan(s3, &bad); err == nil {
			t.Fatalf("mismatched delta %s %d→%d accepted", bad.Protocol, bad.FromMonth, bad.ToMonth)
		}
	}
	if got, err = p.Plan(s3, d); err != nil {
		t.Fatal(err)
	}
	if want, err = SelectCached(s3, part, opts, 1, nil); err != nil {
		t.Fatal(err)
	}
	mustEqualSelections(t, "after a refused delta", got, want)
}

func TestPlannerValidatesOptions(t *testing.T) {
	for _, phi := range []float64{0, -0.5, 1.5} {
		if _, err := NewPlanner(incPartition(t), Options{Phi: phi}, 1, nil); err == nil {
			t.Errorf("φ=%v accepted", phi)
		}
	}
}
