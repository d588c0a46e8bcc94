package core

import (
	"fmt"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/rib"
)

// Planner is the planning step of the paper's loop (§3.1 steps 1–4) for
// a sequence of snapshots over one universe: count, rank by density,
// select to φ. The first Plan counts its snapshot through a Ranker;
// every later Plan repairs that ranking with the delta from the
// previous snapshot, so the steady-state cost follows the churn, not
// the snapshot size. A lazy, file-backed snapshot without a native
// delta is counted afresh instead of diffed. Every selection is byte-identical to SelectCached
// on the same snapshot. Universes too large for the packed ranking are
// recounted in full on every call.
//
// A Planner is single-goroutine state.
type Planner struct {
	universe rib.Partition
	opts     Options
	workers  int
	cache    *census.CountCache

	ranker *Ranker
	prev   *census.Snapshot // the snapshot the ranking reflects
}

// NewPlanner validates opts and returns a planner over universe. The
// counting walks shard over workers goroutines (0 means GOMAXPROCS) and
// memoize in cache (nil computes every call), as in SelectCached.
func NewPlanner(universe rib.Partition, opts Options, workers int, cache *census.CountCache) (*Planner, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Planner{universe: universe, opts: opts, workers: workers, cache: cache}, nil
}

// Plan selects from snap. d, when non-nil, is the native delta from the
// previously planned snapshot to snap and spares the diff walk; a delta
// whose protocol or months do not match those two snapshots is
// rejected. d is ignored on the first call, which counts snap in full.
//
// Whether Plan succeeds or fails, the ranking afterwards reflects the
// last snapshot whose counts it accepted, so a caller may retry or move
// on with any later snapshot.
func (p *Planner) Plan(snap *census.Snapshot, d *census.Delta) (*Selection, error) {
	if p.universe.Len() >= maxRankerPrefixes {
		return SelectCached(snap, p.universe, p.opts, p.workers, p.cache)
	}
	// A file-backed snapshot is never diffed: the merge walk would
	// decode the whole file into memory and skip damaged blocks without
	// a report, while the count from the file's index still held their
	// hosts. Counting it afresh costs what SelectCached costs and
	// surfaces any storage fault.
	if p.ranker == nil || d == nil && (p.prev.Lazy() || snap.Lazy()) {
		r, err := NewRanker(snap, p.universe, p.workers, p.cache)
		if err != nil {
			return nil, err
		}
		p.ranker, p.prev = r, snap
		return r.Select(p.opts)
	}
	if d == nil {
		d = p.prev.Diff(snap)
	} else if d.Protocol != p.prev.Protocol || d.Protocol != snap.Protocol ||
		d.FromMonth != p.prev.Month || d.ToMonth != snap.Month {
		return nil, fmt.Errorf("core: delta %s %d→%d does not lead from the planned snapshot (%s %d) to %s %d",
			d.Protocol, d.FromMonth, d.ToMonth, p.prev.Protocol, p.prev.Month, snap.Protocol, snap.Month)
	}
	if err := p.ranker.Apply(d); err != nil {
		return nil, err
	}
	p.prev = snap
	return p.ranker.Select(p.opts)
}
