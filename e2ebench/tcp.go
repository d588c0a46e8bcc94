package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

const (
	// tcpBlockBits is the prefix length of the scanned loopback block.
	tcpBlockBits = 18
	// tcpClusters × tcpPerCluster listeners sit in the block.
	tcpClusters   = 4
	tcpPerCluster = 8
	tcpWorkers    = 2
	// tcpSweeps is the sweeps of the block in one pass; each sweep's
	// wall time is one latency sample.
	tcpSweeps = 4
)

// tcpLoopback is the tcp-loopback workload: a bare scan.Scanner with
// the TCPProber and two workers over a 127.x block in which a few dozen
// clustered listeners accept connections. No rate limiter and no
// politeness layer: a probe is a connect syscall and little else. A
// pass is tcpSweeps sweeps of the block, each in its own probe order.
type tcpLoopback struct {
	targets   rib.Partition
	listeners []net.Listener
	accepting sync.WaitGroup
	want      []netaddr.Addr // listener addresses, sorted
	acct      *accountedProber
	timing    *durations
	scanSeed  int64
}

func setupTCP(e *env) (instance, error) {
	rng := rand.New(rand.NewSource(subSeed(e.seed, 1)))
	// 127.16.0.0–127.239.255.255 keeps clear of 127.0.0.1 services.
	base := netaddr.AddrFrom4(127, byte(16+rng.Intn(224)), byte(rng.Intn(1<<(tcpBlockBits-16))<<(24-tcpBlockBits)), 0)
	block := netaddr.MustPrefixFrom(base, tcpBlockBits)
	targets, err := rib.NewPartition([]netaddr.Prefix{block})
	if err != nil {
		return nil, err
	}
	span := block.NumAddresses()
	seen := map[netaddr.Addr]bool{}
	var want []netaddr.Addr
	for c := 0; c < tcpClusters; c++ {
		first := uint64(rng.Int63n(int64(span - 256))) // the cluster's /24-sized window
		for len(want) < (c+1)*tcpPerCluster {
			a := base + netaddr.Addr(first+uint64(rng.Intn(256)))
			if seen[a] {
				continue
			}
			seen[a] = true
			want = append(want, a)
		}
	}
	slices.Sort(want)
	t := &tcpLoopback{targets: targets, want: want, timing: newDurations(int(targets.AddressCount())), scanSeed: subSeed(e.seed, 3)}
	port, err := t.listen()
	if err != nil {
		return nil, err
	}
	if e.fault == "listener-down" {
		// One listener goes away; the expected set still has it.
		_ = t.listeners[len(t.listeners)/2].Close()
	}
	t.acct = &accountedProber{inner: &scan.TCPProber{Port: port, Timeout: time.Second}}
	return t, nil
}

// listen binds every wanted address on one port, retrying with a new
// port when another socket already holds one of them.
func (t *tcpLoopback) listen() (int, error) {
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		port := 0
		var lns []net.Listener
		for _, a := range t.want {
			ln, err := net.Listen("tcp", net.JoinHostPort(a.String(), fmt.Sprint(port)))
			if err != nil {
				lastErr = err
				break
			}
			if port == 0 {
				port = ln.Addr().(*net.TCPAddr).Port
			}
			lns = append(lns, ln)
		}
		if len(lns) == len(t.want) {
			t.listeners = lns
			for _, ln := range lns {
				t.accepting.Add(1)
				go func() {
					defer t.accepting.Done()
					for {
						c, err := ln.Accept()
						if err != nil {
							return
						}
						_ = c.Close()
					}
				}()
			}
			return port, nil
		}
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
	return 0, fmt.Errorf("binding loopback listeners: %w", lastErr)
}

func (t *tcpLoopback) close() {
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
	t.accepting.Wait()
}

func (t *tcpLoopback) pass(tr *tracer, tl *tally) (passStats, error) {
	var p passStats
	var root uint64
	passStart := time.Now()
	if tr != nil {
		root = tr.newID()
	}
	var layers []map[string]float64
	var probed uint64
	found := 0
	for i := 0; i < tcpSweeps; i++ {
		var timing *durations
		if tr != nil {
			timing = t.timing
			timing.reset()
		}
		t.acct.reset(timing)
		s, err := scan.New(scan.Config{
			Targets: t.targets,
			Prober:  t.acct,
			Workers: tcpWorkers,
			Seed:    t.scanSeed + int64(i),
		})
		if err != nil {
			return passStats{}, err
		}
		start := time.Now()
		rep, err := s.Run(context.Background())
		end := time.Now()
		if err != nil {
			return passStats{}, fmt.Errorf("scan: %w", err)
		}
		p.wall += end.Sub(start)
		p.lat = append(p.lat, end.Sub(start))
		probed += rep.Probed
		found += census.IntersectCount(rep.Responsive, t.want)
		tl.ops(int64(rep.Probed), int64(rep.Errors))

		what := fmt.Sprintf("sweep %d", i)
		checkLedger(tl, t.acct, t.targets, what)
		tl.check(rep.Probed == t.targets.AddressCount() && rep.Excluded == 0, "exactly-once",
			"%s: report probed %d and excluded %d of %d addresses", what, rep.Probed, rep.Excluded, t.targets.AddressCount())
		tl.check(rep.Errors == 0, "probe-errors", "%s: %d probes failed", what, rep.Errors)
		tl.check(slices.Equal(rep.Responsive, t.want), "tcp-listeners",
			"%s found %d open addresses, %d listeners are up", what, len(rep.Responsive), len(t.want))

		if tr != nil {
			lastEnd := time.Unix(0, t.acct.lastEnd.Load())
			run := tr.record(root, "scan.Scanner.Run", start, end)
			tr.record(run, "scan merge (last probe to Run return)", lastEnd, end)
			scanWall := lastEnd.Sub(start)
			n := float64(rep.Probed)
			probe := timing.values()
			layers = append(layers, map[string]float64{
				"scan.probes":              n,
				"scan.errors":              float64(rep.Errors),
				"scan.excluded":            float64(rep.Excluded),
				"scan.ns_per_probe":        float64(scanWall) / n,
				"scan.engine_ns_per_probe": (tcpWorkers*float64(scanWall) - float64(t.acct.busyTotal())) / n,
				"scan.prober_ns_p50":       percentile(probe, 0.50),
				"scan.prober_ns_p99":       percentile(probe, 0.99),
				"scan.merge_ms":            ms(end.Sub(lastEnd)),
			})
		}
	}
	p.ops = float64(probed)
	p.hitrate = float64(found) / float64(tcpSweeps*len(t.want))
	p.costShare = float64(probed) / float64(tcpSweeps*t.targets.AddressCount())
	if tr != nil {
		tr.add(root, 0, "tcp-loopback.pass", passStart, time.Now())
		p.layer = medianLayers(layers)
	}
	return p, nil
}
