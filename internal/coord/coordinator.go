package coord

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

// Shard lifecycle states. pending → leased → (expired → pending)* →
// done. A cycle completes when every shard is done; the campaign
// completes when the last cycle does (or a reseed selects nothing).
const (
	shardPending = "pending"
	shardLeased  = "leased"
	shardDone    = "done"
)

// shardState is one shard of the current cycle.
type shardState struct {
	State    string    `json:"state"`
	LeaseID  string    `json:"lease_id,omitempty"`
	Worker   string    `json:"worker,omitempty"`
	Deadline time.Time `json:"deadline,omitzero"`
	// Checkpoint is the cursor the shard's current or last holder most
	// recently uploaded; a re-lease hands it to the replacement.
	Checkpoint *scan.Checkpoint `json:"checkpoint,omitempty"`
	// Base accumulates the results of this shard's expired leases;
	// Current is the prefix of the live lease's result log the
	// coordinator holds. Both are in arrival order, and may overlap when
	// an expired-but-alive worker raced its replacement: the cycle-end
	// snapshot sorts and de-duplicates. Both halves of an upload —
	// cursor and results — commit together, so Base∪Current is always
	// consistent with Checkpoint. Neither is ever overwritten in place,
	// only appended to or replaced by a copy: the state encoder's cache
	// relies on it.
	Base       []netaddr.Addr `json:"base,omitempty"`
	Current    []netaddr.Addr `json:"current,omitempty"`
	BaseProbed uint64         `json:"base_probed,omitempty"`
	BaseErrors uint64         `json:"base_errors,omitempty"`
	CurProbed  uint64         `json:"cur_probed,omitempty"`
	CurErrors  uint64         `json:"cur_errors,omitempty"`

	enc *shardEnc // cached encodings of the big fields; see state.go
}

// campaignState is the full durable state of one campaign. Exported
// fields persist (state.go); the partition caches rebuild on load, the
// planner on the first reseed after it. The JSON tags are the v1 state
// format, still read at load.
type campaignState struct {
	Spec    CampaignSpec   `json:"spec"`
	Cycle   int            `json:"cycle"`
	Plan    []string       `json:"plan"`
	Done    bool           `json:"done"`
	Note    string         `json:"note,omitempty"`
	Shards  []*shardState  `json:"shards"`
	History []CycleSummary `json:"history,omitempty"`
	// Releases counts lease grants in the current cycle.
	Releases int `json:"releases,omitempty"`
	// Final is the last completed cycle's responsive set, kept so a
	// finished campaign's result outlives its shards.
	Final []netaddr.Addr `json:"final,omitempty"`

	universe rib.Partition // cached parse of Spec.Universe
	targets  rib.Partition // cached parse of Spec.Targets (may be empty)
	plan     rib.Partition // cached parse of Plan
	planner  *core.Planner // reseed ranking; nil until the first reseed
	enc      campaignEnc   // cached encodings of the sections; see state.go
}

// Coordinator owns the campaign state machines. Every public method is
// one atomic transition: validate, mutate, persist, reply. The clock is
// injectable so lease expiry is deterministic under test.
type Coordinator struct {
	mu        sync.Mutex
	store     Store
	now       func() time.Time
	nextLease uint64
	campaigns map[string]*campaignState
	stateSize int // length of the last encoded state blob
}

// NewCoordinator builds a coordinator over store, reloading any state a
// previous process saved there. A torn or corrupt store is a refusal,
// not a fresh start: silently dropping leases would double-probe every
// in-flight shard. now is the lease clock (nil = time.Now).
func NewCoordinator(store Store, now func() time.Time) (*Coordinator, error) {
	if now == nil {
		now = time.Now
	}
	c := &Coordinator{
		store:     store,
		now:       now,
		campaigns: map[string]*campaignState{},
	}
	data, err := store.Load()
	switch {
	case err == ErrNoState:
		return c, nil
	case err != nil:
		return nil, err
	}
	if err := c.decodeState(data); err != nil {
		return nil, err
	}
	return c, nil
}

// Campaigns lists the registered campaign IDs, sorted.
func (c *Coordinator) Campaigns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.campaigns))
	for id := range c.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CreateCampaign validates and registers a campaign, persisting it
// before the call returns.
func (c *Coordinator) CreateCampaign(spec CampaignSpec) error {
	spec = spec.withDefaults()
	universe, targets, err := spec.validate()
	if err != nil {
		return err
	}
	plan := targets
	if plan.Len() == 0 {
		plan = universe
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.campaigns[spec.ID]; ok {
		return fmt.Errorf("%w: %s", ErrCampaignExists, spec.ID)
	}
	// The spec keeps its prefix lists in canonical (partition) order,
	// which is how the state blob stores and reloads them.
	spec.Universe = formatPartition(universe)
	spec.Targets = nil
	if targets.Len() > 0 {
		spec.Targets = formatPartition(targets)
	}
	cs := &campaignState{
		Spec:     spec,
		Plan:     formatPartition(plan),
		Shards:   freshShards(spec.Shards),
		universe: universe,
		targets:  targets,
		plan:     plan,
	}
	c.campaigns[spec.ID] = cs
	return c.saveLocked()
}

func freshShards(n int) []*shardState {
	out := make([]*shardState, n)
	for i := range out {
		out[i] = &shardState{State: shardPending}
	}
	return out
}

// Acquire leases a shard of campaign to worker. It returns (nil, true)
// when the campaign is finished, (nil, false) when every shard is
// currently leased or done — come back later — and a lease otherwise.
// Expired leases are reclaimed first, so a crashed worker's shard is
// handed out here, checkpoint attached.
func (c *Coordinator) Acquire(campaign, worker string) (*Lease, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[campaign]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaign)
	}
	dirty := c.expireLocked(cs)
	if cs.Done {
		if dirty {
			if err := c.saveLocked(); err != nil {
				return nil, false, err
			}
		}
		return nil, true, nil
	}
	idx := -1
	for i, sh := range cs.Shards {
		if sh.State == shardPending {
			idx = i
			break
		}
	}
	if idx < 0 {
		if dirty {
			if err := c.saveLocked(); err != nil {
				return nil, false, err
			}
		}
		return nil, false, nil
	}
	sh := cs.Shards[idx]
	c.nextLease++
	sh.State = shardLeased
	sh.LeaseID = fmt.Sprintf("L%08d", c.nextLease)
	sh.Worker = worker
	sh.Deadline = c.now().Add(cs.Spec.LeaseTTL)
	cs.Releases++
	lease := &Lease{
		LeaseID:     sh.LeaseID,
		Campaign:    campaign,
		Cycle:       cs.Cycle,
		Shard:       idx,
		Shards:      cs.Spec.Shards,
		Workers:     cs.Spec.Workers,
		Seed:        cs.Spec.Seed + int64(cs.Cycle),
		Rate:        cs.Spec.Rate,
		Exclude:     append([]string(nil), cs.Spec.Exclude...),
		PrefixRate:  cs.Spec.PrefixRate,
		PrefixBurst: cs.Spec.PrefixBurst,
		ChunkProbes: cs.Spec.ChunkProbes,
		TTL:         cs.Spec.LeaseTTL,
		Plan:        cs.Plan,
		Checkpoint:  cloneCheckpoint(sh.Checkpoint),
	}
	if err := c.saveLocked(); err != nil {
		return nil, false, err
	}
	return lease, false, nil
}

// Heartbeat renews a lease and commits the holder's upload: its cursor,
// counts, and results from log position up.From on. It returns the new
// deadline and the count of results now held; ErrLeaseLost means the
// worker no longer owns the shard (expired and possibly re-leased) and
// must stop, ErrUploadGap that it must resend from 0.
func (c *Coordinator) Heartbeat(campaign, leaseID string, up Upload) (Renewal, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, sh, err := c.leaseShardLocked(campaign, leaseID)
	if err != nil {
		return Renewal{}, err
	}
	cur, err := appendUpload(sh.Current, up)
	if err != nil {
		return Renewal{}, err
	}
	sh.Deadline = c.now().Add(cs.Spec.LeaseTTL)
	sh.Checkpoint = cloneCheckpoint(up.Checkpoint)
	sh.Current = cur
	sh.CurProbed, sh.CurErrors = up.Probed, up.Errors
	if err := c.saveLocked(); err != nil {
		return Renewal{}, err
	}
	return Renewal{Deadline: sh.Deadline, Held: len(sh.Current)}, nil
}

// appendUpload applies up to the results held for a lease: the first
// up.From stay and up.Responsive follows them. Cutting the held results
// short copies them, so a slice kept elsewhere (Complete's rollback
// copy, the encoder's cache) never sees an element overwritten.
func appendUpload(held []netaddr.Addr, up Upload) ([]netaddr.Addr, error) {
	switch {
	case up.From < 0 || up.From > len(held):
		return nil, fmt.Errorf("%w: upload from %d, %d held", ErrUploadGap, up.From, len(held))
	case up.From < len(held):
		held = append(make([]netaddr.Addr, 0, up.From+len(up.Responsive)), held[:up.From]...)
	}
	return append(held, up.Responsive...), nil
}

// Complete marks a leased shard finished with its final results. When it
// was the cycle's last shard the coordinator reseeds: merge all shards'
// responsive sets, select over the universe, and open the next cycle —
// or finish the campaign.
func (c *Coordinator) Complete(campaign, leaseID string, up Upload) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, sh, err := c.leaseShardLocked(campaign, leaseID)
	if err != nil {
		return err
	}
	cur, err := appendUpload(sh.Current, up)
	if err != nil {
		return err
	}
	// The rollback copy's results are clipped to their length: a later
	// append to the restored slice must reallocate, not overwrite what
	// this attempt appended in place and a cache may have seen.
	prev := *sh
	prev.Current = slices.Clip(prev.Current)
	sh.State = shardDone
	sh.LeaseID = ""
	sh.Deadline = time.Time{}
	sh.Checkpoint = nil
	sh.Current = cur
	sh.CurProbed, sh.CurErrors = up.Probed, up.Errors
	for _, other := range cs.Shards {
		if other.State != shardDone {
			return c.saveLocked()
		}
	}
	if err := c.finishCycleLocked(cs); err != nil {
		// Roll the shard transition back: finishCycleLocked mutates
		// nothing on failure, so restoring the shard keeps the in-memory
		// state identical to the durable store, the lease stays owned by
		// this worker, and its retried Complete re-runs the whole
		// transition instead of being fenced off a wedged campaign.
		*sh = prev
		return err
	}
	return c.saveLocked()
}

// Status reports a campaign's externally visible state.
func (c *Coordinator) Status(campaign string) (*Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[campaign]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaign)
	}
	if c.expireLocked(cs) {
		if err := c.saveLocked(); err != nil {
			return nil, err
		}
	}
	st := &Status{
		ID:      cs.Spec.ID,
		Cycle:   cs.Cycle,
		Cycles:  cs.Spec.Cycles,
		Done:    cs.Done,
		Note:    cs.Note,
		Plan:    append([]string(nil), cs.Plan...),
		History: append([]CycleSummary(nil), cs.History...),
	}
	for i, sh := range cs.Shards {
		st.Shards = append(st.Shards, ShardStatus{
			Index:     i,
			State:     sh.State,
			Worker:    sh.Worker,
			LeaseID:   sh.LeaseID,
			Deadline:  sh.Deadline,
			Resumable: sh.Checkpoint != nil,
		})
	}
	if cs.Done {
		st.Responsive = append([]netaddr.Addr(nil), cs.Final...)
	}
	return st, nil
}

// leaseShardLocked resolves a lease ID to its shard after reclaiming
// expired leases, enforcing fencing: a lease that expired (even if the
// shard has not been re-leased yet) is lost, not resurrected. Reclaimed
// leases are persisted here, before any refusal, so memory never runs
// ahead of the store.
func (c *Coordinator) leaseShardLocked(campaign, leaseID string) (*campaignState, *shardState, error) {
	cs, ok := c.campaigns[campaign]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaign)
	}
	if c.expireLocked(cs) {
		if err := c.saveLocked(); err != nil {
			return nil, nil, err
		}
	}
	for _, sh := range cs.Shards {
		if sh.State == shardLeased && sh.LeaseID == leaseID {
			return cs, sh, nil
		}
	}
	if leaseID == "" || c.nextLease < leaseNumber(leaseID) {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownLease, leaseID)
	}
	return nil, nil, fmt.Errorf("%w: %s", ErrLeaseLost, leaseID)
}

// leaseNumber extracts the counter from a lease ID ("L%08d"); malformed
// IDs map to a number larger than any issued.
func leaseNumber(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "L%d", &n); err != nil {
		return ^uint64(0)
	}
	return n
}

// expireLocked reclaims expired leases of one campaign: the shard goes
// back to pending with the last uploaded checkpoint attached and the
// lease's uploaded results folded into the shard's base set, so the
// next holder resumes exactly past everything already probed and no
// found address is lost. Reports whether state changed.
func (c *Coordinator) expireLocked(cs *campaignState) bool {
	now := c.now()
	dirty := false
	for _, sh := range cs.Shards {
		if sh.State != shardLeased || now.Before(sh.Deadline) {
			continue
		}
		sh.State = shardPending
		sh.LeaseID = ""
		sh.Worker = ""
		sh.Deadline = time.Time{}
		sh.Base = append(sh.Base, sh.Current...)
		sh.Current = nil
		sh.BaseProbed += sh.CurProbed
		sh.BaseErrors += sh.CurErrors
		sh.CurProbed, sh.CurErrors = 0, 0
		dirty = true
	}
	return dirty
}

// finishCycleLocked merges the completed cycle's shard results, records
// the summary, and either reseeds the next cycle's plan (the paper's
// census→rank→select step, run centrally) or finishes the campaign.
// All-or-nothing: every fallible step runs before the first mutation,
// so a failed reseed leaves the campaign state exactly as it was and
// the caller can safely retry (or roll back its own transition). The
// planner is not campaign state: after a failed reseed its ranking
// reflects the snapshot it last accepted, and the retry repairs it from
// there.
func (c *Coordinator) finishCycleLocked(cs *campaignState) error {
	var n int
	for _, sh := range cs.Shards {
		n += len(sh.Base) + len(sh.Current)
	}
	responsive := make([]netaddr.Addr, 0, n)
	var probed, errors uint64
	for _, sh := range cs.Shards {
		responsive = append(append(responsive, sh.Base...), sh.Current...)
		probed += sh.BaseProbed + sh.CurProbed
		errors += sh.BaseErrors + sh.CurErrors
	}
	// NewSnapshot sorts and de-duplicates a copy: shards are disjoint,
	// but an expired-but-alive lease may have overlapped its
	// replacement, and the union keeps the accounting exactly-once.
	snap := census.NewSnapshot(cs.Spec.Protocol, cs.Cycle, responsive)
	summary := CycleSummary{
		Cycle:      cs.Cycle,
		Plan:       len(cs.Plan),
		Probed:     probed,
		Errors:     errors,
		Responsive: snap.Hosts(),
		Releases:   cs.Releases,
	}
	last := cs.Cycle+1 >= cs.Spec.Cycles
	done, note := last, ""
	var nextPlan rib.Partition
	switch {
	case !last && snap.Hosts() == 0:
		// Nothing answered: there is no snapshot to select from, and the
		// next cycle would scan an empty plan forever. Finish early.
		done = true
		note = fmt.Sprintf("cycle %d found no responsive hosts; campaign finished early", cs.Cycle)
	case !last:
		if cs.planner == nil {
			p, err := core.NewPlanner(cs.universe, core.Options{Phi: cs.Spec.Phi, MinDensity: cs.Spec.MinDensity}, 0, nil)
			if err != nil {
				return fmt.Errorf("coord: campaign %s planner: %w", cs.Spec.ID, err)
			}
			cs.planner = p
		}
		sel, err := cs.planner.Plan(snap, nil)
		if err != nil {
			return fmt.Errorf("coord: campaign %s cycle %d selection: %w", cs.Spec.ID, cs.Cycle, err)
		}
		summary.Selected = sel.K
		summary.SpaceShare = sel.SpaceShare
		nextPlan = sel.Partition()
		if nextPlan.Len() == 0 {
			done = true
			note = fmt.Sprintf("cycle %d selected no prefixes (no responsive hosts); campaign finished early", cs.Cycle)
		}
	}

	cs.Final = snap.Addrs
	cs.History = append(cs.History, summary)
	if done {
		cs.Done = true
		cs.Note = note
		cs.planner = nil
		return nil
	}
	cs.plan = nextPlan
	cs.Plan = formatPartition(nextPlan)
	cs.Cycle++
	cs.Shards = freshShards(cs.Spec.Shards)
	cs.Releases = 0
	return nil
}

// saveLocked serializes everything to the store; called under the lock
// after every mutation so the durable state never trails the replies
// workers have seen.
func (c *Coordinator) saveLocked() error {
	if err := c.store.Save(c.encodeState()); err != nil {
		return fmt.Errorf("coord: persisting state: %w", err)
	}
	return nil
}

func cloneCheckpoint(cp *scan.Checkpoint) *scan.Checkpoint {
	if cp == nil {
		return nil
	}
	out := *cp
	out.Consumed = append([]uint64(nil), cp.Consumed...)
	if cp.ASProbed != nil {
		out.ASProbed = make(map[uint32]uint64, len(cp.ASProbed))
		for k, v := range cp.ASProbed {
			out.ASProbed[k] = v
		}
	}
	return &out
}
