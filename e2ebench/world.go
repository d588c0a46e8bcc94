package main

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
	"github.com/tass-scan/tass/internal/topo"
)

// subSeed derives the seed of one input stream from the run's seed, so
// the world, the churn, the probe loss and the probe order are
// independent streams of one seed.
func subSeed(seed int64, stream uint64) int64 { return topo.MixSeed(seed, stream, 0x6532656265) }

const (
	// simCycles is the campaign length of campaign-sim and fleet-http:
	// the seed scan plus three reseed cycles.
	simCycles = 4
	// simLoss is the share of probes to live hosts the SimProber drops.
	simLoss = 0.03
	simPhi  = 0.95
	// simSampleShift times one simulated probe in 16 in a traced run.
	simSampleShift = 4
)

// simWorld is the probed world of campaign-sim and fleet-http: an
// announced universe, a ground truth that churns one simulated month
// per cycle, and one SimProber per cycle answering from that truth.
type simWorld struct {
	universe rib.Partition
	table    *rib.Table
	truth    *census.Series
	probers  []scan.Prober
	scanSeed int64
}

// newSimWorld builds the world from the seed. The allocated /11 is
// announced in full (no unannounced holes), so every seed scans the
// same number of addresses in cycle 0, and no announcement is wider
// than a /22, so no single sparse block swings the size of a seed's
// selections. The seed moves the prefix structure, the host placement,
// the churn, the loss and the probe order.
func newSimWorld(seed int64) (*simWorld, error) {
	cfg := topo.SmallConfig(subSeed(seed, 1))
	cfg.Allocated = []netaddr.Prefix{netaddr.MustParsePrefix("20.0.0.0/11")}
	cfg.Protocols = topo.DefaultProfiles(0.01)[1:2] // HTTP-shaped, ≈24 K hosts
	for l := range cfg.HoleProb {
		cfg.HoleProb[l] = 0
		if l <= 21 {
			cfg.AnnounceProb[l] = 0
		}
	}
	cfg.AnnounceProb[cfg.MaxLen] = 1
	cfg.Workers = 1
	u, err := topo.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating universe: %w", err)
	}
	truth := churn.RunSim(u, subSeed(seed, 2), simCycles-1, churn.RunConfig{Workers: 1})[cfg.Protocols[0].Name]
	w := &simWorld{universe: u.More, table: u.Table, truth: truth, scanSeed: subSeed(seed, 3)}
	for i := 0; i < simCycles; i++ {
		p, err := scan.NewSimProber(truth.At(i).Addrs, simLoss, subSeed(seed, 100+uint64(i)))
		if err != nil {
			return nil, err
		}
		w.probers = append(w.probers, p)
	}
	return w, nil
}

// expectedOpen is what a cycle that probes plan once through p must
// find: the truth hosts inside the plan that p answers.
func expectedOpen(p scan.Prober, truth *census.Snapshot, plan rib.Partition) ([]netaddr.Addr, error) {
	var out []netaddr.Addr
	for _, a := range truth.Addrs {
		if _, in := plan.Find(a); !in {
			continue
		}
		r, err := p.Probe(context.Background(), a)
		if err != nil {
			return nil, err
		}
		if r.Open {
			out = append(out, a)
		}
	}
	return out, nil
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ledger proves exactly-once probing without a lock on the probe path:
// every probe adds its address's hash to one of a few padded stripes,
// and the per-cycle count and hash sum must equal those of the plan. A
// skipped address and a repeated one would have to hash to the same
// 64-bit value to cancel.
type ledger struct {
	stripes [16]struct {
		n, sum atomic.Uint64
		_      [48]byte // keeps stripes on separate cache lines
	}
}

// add records one probe of a and returns a's hash.
func (l *ledger) add(a netaddr.Addr) uint64 {
	h := mix64(uint64(a))
	s := &l.stripes[h&15]
	s.n.Add(1)
	s.sum.Add(h)
	return h
}

func (l *ledger) totals() (n, sum uint64) {
	for i := range l.stripes {
		n += l.stripes[i].n.Load()
		sum += l.stripes[i].sum.Load()
	}
	return n, sum
}

func (l *ledger) reset() {
	for i := range l.stripes {
		l.stripes[i].n.Store(0)
		l.stripes[i].sum.Store(0)
	}
}

// planTotals is the ledger a plan probed exactly once must produce.
func planTotals(p rib.Partition) (n, sum uint64) {
	for i := 0; i < p.Len(); i++ {
		for a, last := uint64(p.FirstAt(i)), uint64(p.LastAt(i)); a <= last; a++ {
			sum += mix64(a)
			n++
		}
	}
	return n, sum
}

// accountedProber wraps the program's prober: it feeds the exactly-once
// ledger and, when timing is set, measures Probe calls.
type accountedProber struct {
	inner  scan.Prober
	ledger ledger
	// sampleShift, when positive, times only the probes whose address
	// hash has its top sampleShift bits clear: one in 2^sampleShift,
	// chosen without a shared counter. Simulated probes take a few
	// hundred nanoseconds, so timing each one would double their cost.
	sampleShift uint
	// timing, when set, receives the sampled Probe calls' durations;
	// busy sums them and lastEnd holds the end of the latest sampled
	// call (Unix ns).
	timing  *durations
	busy    atomic.Int64
	lastEnd atomic.Int64
}

func (p *accountedProber) Probe(ctx context.Context, a netaddr.Addr) (scan.Result, error) {
	h := p.ledger.add(a)
	if p.timing == nil || (p.sampleShift > 0 && h>>(64-p.sampleShift) != 0) {
		return p.inner.Probe(ctx, a)
	}
	t0 := time.Now()
	r, err := p.inner.Probe(ctx, a)
	t1 := time.Now()
	d := t1.Sub(t0)
	p.timing.add(d)
	p.busy.Add(int64(d))
	p.lastEnd.Store(t1.UnixNano())
	return r, err
}

// busyTotal estimates the time spent in Probe calls from the samples.
func (p *accountedProber) busyTotal() time.Duration {
	return time.Duration(p.busy.Load()) << p.sampleShift
}

func (p *accountedProber) reset(timing *durations) {
	p.ledger.reset()
	p.timing = timing
	p.busy.Store(0)
	p.lastEnd.Store(0)
}

// checkLedger checks that p's ledger saw plan probed exactly once.
func checkLedger(t *tally, p *accountedProber, plan rib.Partition, what string) {
	n, sum := p.ledger.totals()
	wn, wsum := planTotals(plan)
	t.check(n == wn && sum == wsum, "exactly-once", "%s: probed %d addresses (hash %x), plan has %d (hash %x)", what, n, sum, wn, wsum)
}

func snapshotAddrs(s *census.Snapshot) []netaddr.Addr {
	if !s.Lazy() && s.Addrs != nil {
		return s.Addrs
	}
	set := s.Set()
	return set.AppendTo(make([]netaddr.Addr, 0, set.Len()))
}

// sameSelection reports whether two selections are the same plan drawn
// from the same ranking.
func sameSelection(a, b *core.Selection) bool {
	if a.K != b.K || a.SeedHosts != b.SeedHosts || a.Space != b.Space || a.HostCoverage != b.HostCoverage {
		return false
	}
	if !slices.Equal(a.Ranked, b.Ranked) {
		return false
	}
	return slices.Equal(a.Prefixes(), b.Prefixes())
}
