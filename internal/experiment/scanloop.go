package experiment

import (
	"context"
	"fmt"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
	"github.com/tass-scan/tass/internal/stats"
	"github.com/tass-scan/tass/internal/topo"
)

// scanLoopLoss is the probe loss rate of the simulated live scans: a few
// percent of live hosts don't answer a single SYN, the paper's reason
// real seed scans undercount (§2).
const scanLoopLoss = 0.03

// scanLoopRate paces the simulated scanner. It puts the token-bucket
// limiter in the probe path (each worker draws its share of the rate in
// grants of many tokens) without stretching the experiment's wall
// clock noticeably (the full mini-universe scan fits in well under a
// second).
const scanLoopRate = 10e6

// scanLoopWorld builds the dedicated mini-universe the scan-in-the-loop
// scenario probes. Unlike every other experiment it cannot share the
// World: a live scan touches every announced address, so its testbed
// must stay small no matter what scale the world was built at (at paper
// scale a simulated full scan would mean 2.8 B probe calls). The
// universe is a single /14 (256 K addresses) with the FTP profile scaled
// so the host density matches the paper's, churned over the world's
// month count; everything derives deterministically from the world seed.
func scanLoopWorld(w *World) (*topo.Universe, *census.Series, error) {
	tcfg := topo.DefaultConfig(w.Cfg.Seed + 77)
	tcfg.Allocated = []netaddr.Prefix{netaddr.MustParsePrefix("100.64.0.0/14")}
	tcfg.Protocols = topo.DefaultProfiles(0.0025)[:1] // ftp, ≈3 K hosts
	// Force announcements to split below the allocated block so the
	// universe has ranking structure (cf. topo.SmallConfig).
	for l := 0; l <= 15; l++ {
		tcfg.AnnounceProb[l] = 0
		tcfg.HoleProb[l] = 0
	}
	tcfg.Workers = w.Cfg.workers()
	u, err := topo.Generate(tcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("scanloop universe: %w", err)
	}
	series := churn.RunSim(u, w.Cfg.Seed+78, w.Cfg.Months, churn.RunConfig{Workers: w.Cfg.workers()})
	return u, series[u.Protocols()[0]], nil
}

// ScanLoop closes the paper's loop (§3.1 step 5) with the scan engine in
// it: instead of seeding TASS from an oracle census snapshot, cycle 0
// runs a rate-limited, lossy simulated scan of the whole testbed
// universe, the selection is computed from whatever that scan found, and
// every following cycle re-scans the tightened plan against the churned
// ground truth and re-selects from its own results. The oracle column
// seeds one selection from the true month-0 snapshot (what every other
// experiment does) and keeps it fixed — the comparison quantifies how
// much selection quality a real, imperfect seed scan costs.
func ScanLoop(w *World) (Result, error) {
	u, truth, err := scanLoopWorld(w)
	if err != nil {
		return Result{}, err
	}
	universe := u.More
	opts := core.Options{Phi: 0.95}

	// The oracle arm: one selection from true month-0, never re-seeded.
	oracle, err := core.SelectCached(truth.At(0), universe, opts, w.Cfg.workers(), w.Cache)
	if err != nil {
		return Result{}, fmt.Errorf("scanloop oracle selection: %w", err)
	}

	// The live arm: scan → census → select, one cycle per month.
	c := &scan.Campaign{
		Universe: universe,
		ProberAt: func(cycle int) scan.Prober {
			// The prober seed advances per cycle: loss must be drawn
			// independently per scan, not pinned to the address — a fixed
			// seed would make the same 3% of hosts invisible in every
			// cycle instead of modeling transient packet loss.
			p, err := scan.NewSimProber(truth.At(cycle).Addrs, scanLoopLoss, w.Cfg.Seed+900+int64(cycle))
			if err != nil {
				panic(err) // loss rate is a package constant in [0,1)
			}
			return p
		},
		Opts:     opts,
		Rate:     scanLoopRate,
		Burst:    4096,
		Workers:  w.Cfg.workers(),
		Seed:     w.Cfg.Seed + 901,
		Protocol: "ftp",
	}
	cycles, err := c.Run(context.Background(), truth.Months())
	if err != nil {
		return Result{}, fmt.Errorf("scanloop campaign: %w", err)
	}

	var tb stats.Table
	tb.AddRow("cycle", "plan", "probes", "found", "hitrate", "space", "oracle hr", "oracle space")
	for _, cy := range cycles {
		month := truth.At(cy.Index)
		planLabel := "sel"
		if cy.Index == 0 {
			planLabel = "full"
		}
		tb.AddRow(fmt.Sprintf("%d (%s)", cy.Index, planLabel),
			fmt.Sprintf("%d pfx", cy.Plan.Len()),
			fmt.Sprintf("%d", cy.Report.Probed),
			fmt.Sprintf("%d", cy.Snapshot.Hosts()),
			fmt.Sprintf("%.3f", cy.Hitrate(month)),
			fmt.Sprintf("%.3f", cy.CostShare(universe)),
			fmt.Sprintf("%.3f", oracle.Hitrate(month)),
			fmt.Sprintf("%.3f", float64(oracle.Space)/float64(universe.AddressCount())))
	}
	return Result{
		ID: "scanloop",
		Title: fmt.Sprintf("scan in the loop: feedback campaign vs oracle-seeded selection (ftp testbed, φ=%.2f, %.0f%% loss)",
			opts.Phi, 100*scanLoopLoss),
		Text: tb.String(),
	}, nil
}
