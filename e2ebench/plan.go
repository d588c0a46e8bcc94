package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/topo"
)

const (
	// planScale sizes the plan-churn universe against paper scale:
	// ≈210 K hosts in ≈140 K m-prefixes.
	planScale = 0.1
	// planMonths is how many monthly deltas setup generates. A pass
	// walks them forward and back again, 2·planMonths steps.
	planMonths = 6
)

// planChurn is the plan-churn workload: no probing, only the planning
// and storage layers. Each step applies one month's census delta, writes
// the snapshot as a TASSNAP3 file, reopens it lazily, selects over the
// lazy snapshot and repairs the incremental ranking. A pass walks the
// generated months forward and back, so the state is the same at the
// start of every pass.
type planChurn struct {
	e        *env
	universe rib.Partition
	truth    *census.Series
	// truthAddrs[m] is the true census of month m as a sorted slice.
	truthAddrs [][]netaddr.Addr
	steps      []planStep
	cur        *census.Snapshot
	ranker     *core.Ranker
	path       string
}

// planStep moves the census to month `to` by applying d.
type planStep struct {
	d  *census.Delta
	to int
}

func setupPlanChurn(e *env) (instance, error) {
	cfg := topo.DefaultConfig(subSeed(e.seed, 1))
	cfg.Allocated = nil
	for b := 0; b < int(planScale*220); b++ {
		cfg.Allocated = append(cfg.Allocated, netaddr.MustPrefixFrom(netaddr.AddrFrom4(byte(20+b), 0, 0, 0), 8))
	}
	cfg.Protocols = topo.DefaultProfiles(planScale)[2:3] // HTTPS-shaped
	for l := 0; l <= 12; l++ {
		cfg.AnnounceProb[l] = 0 // no whole-/8 announcements in a small world
		cfg.HoleProb[l] = 0
	}
	cfg.Workers = 1
	u, err := topo.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating universe: %w", err)
	}
	series, deltas := churn.RunSimDeltas(u, subSeed(e.seed, 2), planMonths, churn.RunConfig{Workers: 1})
	name := u.Protocols()[0]
	pc := &planChurn{
		e:        e,
		universe: u.More,
		truth:    series[name],
		cur:      series[name].At(0),
		path:     filepath.Join(e.dir, "plan-churn.snap"),
	}
	for m := 0; m <= planMonths; m++ {
		pc.truthAddrs = append(pc.truthAddrs, snapshotAddrs(pc.truth.At(m)))
	}
	for m := 1; m <= planMonths; m++ {
		pc.steps = append(pc.steps, planStep{d: deltas[name][m-1], to: m})
	}
	for m := planMonths; m >= 1; m-- {
		d := deltas[name][m-1]
		back := &census.Delta{Protocol: d.Protocol, FromMonth: m, ToMonth: m - 1, Born: d.Died, Died: d.Born}
		pc.steps = append(pc.steps, planStep{d: back, to: m - 1})
	}
	if pc.ranker, err = core.NewRanker(pc.cur, pc.universe, 0, nil); err != nil {
		return nil, err
	}
	return pc, nil
}

func (pc *planChurn) close() { _ = os.Remove(pc.path) }

// withoutFirstBorn returns d minus its first born address: the fault
// the self-test feeds to one consumer of a delta.
func withoutFirstBorn(d *census.Delta) *census.Delta {
	if len(d.Born) == 0 {
		return d
	}
	out := *d
	out.Born = d.Born[1:]
	return &out
}

func (pc *planChurn) pass(tr *tracer, t *tally) (passStats, error) {
	opts := core.Options{Phi: simPhi}
	var p passStats
	var root uint64
	var passStart time.Time
	if tr != nil {
		root = tr.newID()
		passStart = time.Now()
	}
	var hit, cost []float64
	var layer []map[string]float64
	for si, st := range pc.steps {
		censusDelta, rankDelta := st.d, st.d
		switch pc.e.fault {
		case "drop-census-address":
			censusDelta = withoutFirstBorn(st.d)
		case "drop-ranker-address":
			rankDelta = withoutFirstBorn(st.d)
		}
		what := fmt.Sprintf("step %d (to month %d)", si, st.to)
		var tm [7]time.Time
		tm[0] = time.Now()
		next, applyDeltaErr := census.ApplyDelta(pc.cur, censusDelta)
		tm[1] = time.Now()
		if applyDeltaErr != nil {
			// Carry on from the true census so the walk stays valid.
			next = pc.truth.At(st.to)
		}
		if err := census.WriteSnapshotFile(pc.path, next); err != nil {
			return passStats{}, fmt.Errorf("%s: write snapshot: %w", what, err)
		}
		if pc.e.fault == "corrupt-snapshot-file" {
			if err := flipByte(pc.path); err != nil {
				return passStats{}, err
			}
		}
		tm[2] = time.Now()
		lazy, openErr := census.OpenSnapshotFile(pc.path)
		tm[3] = time.Now()
		var full *core.Selection
		var selErr error
		if openErr == nil {
			full, selErr = core.SelectCached(lazy, pc.universe, opts, 0, nil)
		}
		tm[4] = time.Now()
		applyErr := pc.ranker.Apply(rankDelta)
		tm[5] = time.Now()
		var inc *core.Selection
		var incErr error
		if applyErr == nil {
			inc, incErr = pc.ranker.Select(opts)
		}
		tm[6] = time.Now()
		pc.cur = next
		step := tm[6].Sub(tm[0])
		p.wall += step
		p.lat = append(p.lat, step)
		p.ops += float64(st.d.Changed())

		var decodes, resident int
		if lazy != nil {
			decodes, resident = int(lazy.Set().Decodes()), lazy.Set().ResidentBlocks()
		}
		t.check(applyDeltaErr == nil && slices.Equal(snapshotAddrs(next), pc.truthAddrs[st.to]), "census-truth",
			"%s: census after ApplyDelta (error %v) differs from the churned truth", what, applyDeltaErr)
		reopened := t.check(openErr == nil && selErr == nil, "reopened-snapshot",
			"%s: reopening or selecting over the written snapshot failed: open %v, select %v", what, openErr, selErr)
		if reopened {
			t.check(lazy.Hosts() == next.Hosts() && slices.Equal(snapshotAddrs(lazy), snapshotAddrs(next)), "reopened-snapshot",
				"%s: reopened snapshot (%d hosts) differs from the in-memory one (%d hosts)", what, lazy.Hosts(), next.Hosts())
			t.check(lazy.StorageErr() == nil, "reopened-snapshot", "%s: storage fault reading the snapshot: %v", what, lazy.StorageErr())
		}
		incOK := t.check(applyErr == nil && incErr == nil, "incremental-vs-full",
			"%s: incremental ranking failed: apply %v, select %v", what, applyErr, incErr)
		if applyErr != nil {
			// A failed Apply leaves the ranking undefined: start over.
			r, err := core.NewRanker(next, pc.universe, 0, nil)
			if err != nil {
				return passStats{}, err
			}
			pc.ranker = r
		}
		if incOK && reopened {
			t.check(sameSelection(inc, full), "incremental-vs-full",
				"%s: incremental selection (K=%d, %d hosts) differs from the full one over the reopened snapshot (K=%d, %d hosts)",
				what, inc.K, inc.SeedHosts, full.K, full.SeedHosts)
		}
		if inc != nil {
			following := pc.steps[(si+1)%len(pc.steps)].to
			hit = append(hit, inc.Hitrate(pc.truth.At(following)))
			cost = append(cost, inc.SpaceShare)
		}
		if tr != nil {
			size := int64(0)
			if fi, err := os.Stat(pc.path); err == nil {
				size = fi.Size()
			}
			id := tr.record(root, fmt.Sprintf("plan-churn.step %d", si), tm[0], tm[6])
			for k, name := range []string{"census.ApplyDelta", "census.WriteSnapshotFile", "census.OpenSnapshotFile",
				"core.SelectCached (lazy)", "core.Ranker.Apply", "core.Ranker.Select"} {
				tr.record(id, name, tm[k], tm[k+1])
			}
			layer = append(layer, map[string]float64{
				"census.apply_delta_ms":   ms(tm[1].Sub(tm[0])),
				"census.write_ms":         ms(tm[2].Sub(tm[1])),
				"census.write_bytes":      float64(size),
				"census.open_ms":          ms(tm[3].Sub(tm[2])),
				"core.select_ms":          ms(tm[4].Sub(tm[3])),
				"core.ranker_apply_ms":    ms(tm[5].Sub(tm[4])),
				"core.ranker_select_ms":   ms(tm[6].Sub(tm[5])),
				"addrset.block_decodes":   float64(decodes),
				"addrset.resident_blocks": float64(resident),
			})
		}
		if lazy != nil {
			if err := lazy.Close(); err != nil {
				return passStats{}, fmt.Errorf("%s: closing snapshot: %w", what, err)
			}
		}
	}
	p.hitrate = mean(hit)
	p.costShare = mean(cost)
	if tr != nil {
		tr.add(root, 0, "plan-churn.pass", passStart, time.Now())
		p.layer = medianLayers(layer)
	}
	return p, nil
}

// flipByte corrupts one byte in the middle of a file.
func flipByte(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
