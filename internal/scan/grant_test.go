package scan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// advanceTo moves the clock forward to t; it never moves it back.
func (c *fakeClock) advanceTo(t time.Time) {
	c.mu.Lock()
	if t.After(c.t) {
		c.t = t
	}
	c.mu.Unlock()
}

// stampProber records the virtual send time of every probe. Its first
// `stall` calls block until that many are waiting, so each comes from a
// different worker; the last one to arrive then moves the clock on by a
// long pause, as a stalled network would. Every worker is then holding
// the unspent rest of its first grant while the bucket refills to its
// cap. After cancelAt probes it cancels the run.
type stampProber struct {
	clock    *fakeClock
	stall    int
	cancelAt int
	cancel   context.CancelFunc

	mu      sync.Mutex
	stamps  []time.Time
	arrived int
	gate    chan struct{}
}

func (p *stampProber) Probe(ctx context.Context, addr netaddr.Addr) (Result, error) {
	p.mu.Lock()
	p.stamps = append(p.stamps, p.clock.now())
	n := len(p.stamps)
	if n == p.cancelAt {
		p.cancel()
	}
	wait := n <= p.stall
	if wait {
		p.arrived++
		if p.arrived == p.stall {
			p.clock.advance(time.Hour)
			close(p.gate)
		}
	}
	p.mu.Unlock()
	if wait {
		<-p.gate
	}
	return Result{Addr: addr}, nil
}

// maxWindowExcess returns the largest (probes sent in [t_i, t_j]) −
// rate·(t_j − t_i) over every window bounded by two send times.
func maxWindowExcess(stamps []time.Time, rate float64) float64 {
	slices.SortFunc(stamps, func(a, b time.Time) int { return a.Compare(b) })
	// Probes in [t_i, t_j] number j−i+1 once ties at t_i start at the
	// smallest i, so the excess is max over j of g(j)+1 − min_{i≤j} g(i)
	// with g(i) = i − rate·t_i, and the smallest tied index gives the
	// smallest g.
	t0 := stamps[0]
	excess, minG := math.Inf(-1), math.Inf(1)
	for j, t := range stamps {
		g := float64(j) - rate*t.Sub(t0).Seconds()
		minG = min(minG, g)
		excess = max(excess, g+1-minG)
	}
	return excess
}

// TestScannerGrantsHoldRateBound runs Scanner.Run with the limiter on
// a virtual clock, at rates whose grants are one token and many, and
// checks the two promises of per-worker grants:
//
//   - paced: a sleeper moves the clock to the moment the bucket's debt
//     is paid, and a long stall lets the bucket refill while every
//     worker holds unspent tokens. Probes sent in every window stay
//     ≤ rate·window + burst. With the bucket's cap left at burst the
//     held tokens would come on top of a full bucket, and the single
//     worker case fails deterministically.
//   - frozen: the clock never moves, so the bucket only ever loses what
//     was granted and gains what was given back. After Run it holds
//     exactly its cap less the probes sent: no granted token is lost
//     and none is returned twice.
//
// Each runs to the end, with a cancel mid-run, and with a MaxProbes
// cut-off.
func TestScannerGrantsHoldRateBound(t *testing.T) {
	const burst = 64
	part, err := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/22")})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, rate := range []float64{1000, 1e6} {
			for _, stop := range []string{"end", "cancel", "max-probes"} {
				for _, paced := range []bool{true, false} {
					name := fmt.Sprintf("workers=%d/rate=%g/%s/paced=%v", workers, rate, stop, paced)
					t.Run(name, func(t *testing.T) {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						clock := newFakeClock()
						prober := &stampProber{clock: clock, cancel: cancel, gate: make(chan struct{})}
						cfg := Config{Targets: part, Prober: prober, Rate: rate, Burst: burst, Workers: workers, Seed: 5}
						switch stop {
						case "cancel":
							prober.cancelAt = 300
						case "max-probes":
							cfg.MaxProbes = 300
						}
						if paced {
							prober.stall = workers
						}
						s, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						lim := s.limiter
						if want := rate > 1e5; (s.grant > 1) != want {
							t.Fatalf("grant of %d tokens at rate %g", s.grant, rate)
						}
						lim.now = clock.now
						lim.sleep = func(ctx context.Context, d time.Duration) error {
							if err := ctx.Err(); err != nil {
								return err
							}
							if paced {
								lim.mu.Lock()
								paid := lim.last.Add(time.Duration(math.Ceil(-lim.tokens / lim.rate * 1e9)))
								lim.mu.Unlock()
								clock.advanceTo(paid)
							}
							return nil
						}

						report, err := s.Run(ctx)
						switch {
						case stop == "cancel" && !errors.Is(err, context.Canceled):
							t.Fatalf("canceled run returned %v", err)
						case stop != "cancel" && err != nil:
							t.Fatal(err)
						}
						sent := len(prober.stamps)
						if uint64(sent) != report.Probed {
							t.Fatalf("prober saw %d probes, report says %d", sent, report.Probed)
						}
						switch stop {
						case "end":
							if sent != 1024 {
								t.Fatalf("probed %d of 1024", sent)
							}
						case "cancel":
							if sent < 300 || sent >= 1024 {
								t.Fatalf("canceled run probed %d", sent)
							}
						case "max-probes":
							if sent != 300 {
								t.Fatalf("probed %d, want 300", sent)
							}
						}

						if paced {
							if ex := maxWindowExcess(prober.stamps, rate); ex > burst+1e-6 {
								t.Errorf("a window saw rate·window + %.2f probes, burst is %d", ex, burst)
							}
							return
						}
						lim.mu.Lock()
						left := lim.tokens
						lim.mu.Unlock()
						if want := lim.fill - float64(sent); left != want {
							t.Errorf("bucket holds %v tokens after %d probes, want %v", left, sent, want)
						}
					})
				}
			}
		}
	}
}
