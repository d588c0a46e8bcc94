package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

// neverBindingRate switches the scanner's global rate limiter on at a
// level no 2-worker scan reaches, so its per-probe cost is in the path
// without ever pacing a probe.
const neverBindingRate = 1e10

// campaignSim is the campaign-sim workload: a single-node
// scan.Campaign (incremental, φ=0.95) over the sim world, cycle 0 the
// full seed scan and then reseed cycles. A pass is one whole campaign.
type campaignSim struct {
	w       *simWorld
	workers int
	acct    []*accountedProber // one per cycle
	timing  *durations
	exclude []netaddr.Prefix
}

func setupCampaign(e *env) (instance, error) {
	w, err := newSimWorld(e.seed)
	if err != nil {
		return nil, err
	}
	c := &campaignSim{w: w, workers: 2}
	if e.traced {
		c.timing = newDurations(1 << 20)
	}
	for _, p := range w.probers {
		if e.fault == "flaky-prober" {
			p = &scan.FlakyProber{Inner: p, FailEvery: 5000}
		}
		c.acct = append(c.acct, &accountedProber{inner: p, sampleShift: simSampleShift})
	}
	if e.fault == "exclude-address" {
		// The exclusion list is the engine's own way to leave an address
		// unprobed: cycle 0 then misses one plan address.
		c.exclude = []netaddr.Prefix{netaddr.MustPrefixFrom(w.universe.FirstAt(w.universe.Len()/2), 32)}
	}
	return c, nil
}

func (c *campaignSim) setWorkers(n int) { c.workers = n }
func (c *campaignSim) close()           {}

func (c *campaignSim) pass(tr *tracer, t *tally) (passStats, error) {
	var timing *durations
	if tr != nil {
		timing = c.timing
		timing.reset()
	}
	for _, a := range c.acct {
		a.reset(timing)
	}
	// marks[i] is when cycle i asked for its prober; marks[simCycles]
	// is when Run returned.
	var marks [simCycles + 1]time.Time
	camp := &scan.Campaign{
		Universe: c.w.universe,
		ProberAt: func(i int) scan.Prober {
			marks[i] = time.Now()
			return c.acct[i]
		},
		Opts:        core.Options{Phi: simPhi},
		Rate:        neverBindingRate,
		Burst:       1 << 16,
		Workers:     c.workers,
		Seed:        c.w.scanSeed,
		Exclude:     c.exclude,
		Politeness:  scan.Politeness{Footprint: true},
		OriginsOf:   c.w.table.OriginsOf,
		Incremental: true,
		Protocol:    "http",
	}
	start := time.Now()
	cycles, err := camp.Run(context.Background(), simCycles)
	marks[simCycles] = time.Now()
	if err != nil {
		return passStats{}, fmt.Errorf("campaign: %w", err)
	}
	p := passStats{wall: marks[simCycles].Sub(start)}
	var probed, errs, excluded uint64
	for i, cy := range cycles {
		probed += cy.Report.Probed
		errs += cy.Report.Errors
		excluded += cy.Report.Excluded
		if i > 0 {
			p.lat = append(p.lat, marks[i+1].Sub(marks[i]))
		}
	}
	p.ops = float64(probed)
	last := cycles[len(cycles)-1]
	p.hitrate = last.Hitrate(c.w.truth.At(last.Index))
	p.costShare = float64(probed) / float64(simCycles*c.w.universe.AddressCount())
	t.ops(int64(probed), int64(errs))

	for i, cy := range cycles {
		what := fmt.Sprintf("cycle %d", i)
		checkLedger(t, c.acct[i], cy.Plan, what)
		t.check(cy.Report.Probed == cy.Plan.AddressCount() && cy.Report.Excluded == 0, "exactly-once",
			"%s: report probed %d and excluded %d of a %d-address plan", what, cy.Report.Probed, cy.Report.Excluded, cy.Plan.AddressCount())
		t.check(cy.Report.Errors == 0, "probe-errors", "%s: %d probes failed", what, cy.Report.Errors)
		want, err := expectedOpen(c.w.probers[i], c.w.truth.At(i), cy.Plan)
		if err != nil {
			return passStats{}, err
		}
		t.check(slices.Equal(cy.Report.Responsive, want), "responsive-set",
			"%s: found %d hosts, the truth inside the plan answers %d", what, len(cy.Report.Responsive), len(want))
		full, err := core.SelectCached(cy.Snapshot, c.w.universe, core.Options{Phi: simPhi}, 1, nil)
		if err != nil {
			return passStats{}, err
		}
		t.check(sameSelection(cy.Selection, full), "selection",
			"%s: incremental selection (K=%d) differs from a full selection (K=%d)", what, cy.Selection.K, full.K)
	}

	if tr != nil {
		p.layer = c.layers(tr, cycles, marks[:], start, probed, errs, excluded)
	}
	return p, nil
}

// layers derives the scan-engine numbers of a traced pass. A cycle's
// scan runs from its prober request to its last probe's end; its plan
// step from there to the next cycle's prober request (the engine's
// result merge, the census snapshot and the selection).
func (c *campaignSim) layers(tr *tracer, cycles []scan.Cycle, marks []time.Time, start time.Time, probed, errs, excluded uint64) map[string]float64 {
	root := tr.newID()
	var scanWall, busy time.Duration
	var plan []float64
	for i := range cycles {
		end := time.Unix(0, c.acct[i].lastEnd.Load())
		if end.Before(marks[i]) {
			end = marks[i] // a cycle with nothing to probe
		}
		cyc := tr.record(root, fmt.Sprintf("campaign.cycle %d", i), marks[i], marks[i+1])
		tr.record(cyc, "scan: OriginsOf, scan.New, Scanner.Run to the last probe", marks[i], end)
		tr.record(cyc, "plan: merge, census.NewSnapshot, core.Ranker", end, marks[i+1])
		scanWall += end.Sub(marks[i])
		busy += c.acct[i].busyTotal()
		plan = append(plan, ms(marks[i+1].Sub(end)))
	}
	tr.add(root, 0, "campaign-sim.pass", start, marks[len(marks)-1])
	probe := c.timing.values()
	return map[string]float64{
		"scan.probes":              float64(probed),
		"scan.errors":              float64(errs),
		"scan.excluded":            float64(excluded),
		"scan.ns_per_probe":        float64(scanWall) / float64(probed),
		"scan.engine_ns_per_probe": (float64(c.workers)*float64(scanWall) - float64(busy)) / float64(probed),
		"scan.prober_ns_p50":       percentile(probe, 0.50),
		"scan.prober_ns_p99":       percentile(probe, 0.99),
		"scan.campaign_plan_ms":    median(plan),
	}
}
