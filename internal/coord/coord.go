// Package coord makes the scan-campaign feedback loop fault-tolerant
// across a fleet: an HTTP+JSON coordinator owns the campaign state
// machine, workers own nothing but a lease.
//
// The unit of work is one shard of one scan cycle — the same ZMap-style
// cycle slice that scan.Config.Shard/Shards gives a single machine. A
// worker acquires a time-bounded lease on a shard, scans it in
// checkpointable chunks, renews the lease by uploading its cursor
// (scan.Checkpoint) plus the responsive addresses found since the
// coordinator last acknowledged its results (see Upload), and finally
// marks the shard complete. A lease that is not renewed before
// its deadline — worker crash, network partition — is revoked, and the
// shard is re-leased to the next worker that asks, *with the dead
// worker's last uploaded checkpoint*: the replacement resumes exactly
// where the uploads stopped, so the cycle still probes each address
// exactly once. This is the local Scanner.Resume guarantee lifted to the
// fleet; lease fencing (upload tokens die with the lease) keeps a
// partitioned-but-alive worker from double-counting results it can no
// longer own.
//
// When every shard of a cycle is complete the coordinator merges the
// per-shard responsive sets into a census snapshot, runs the paper's
// re-selection over the campaign universe, and the next cycle's leases
// carry the tightened plan — scan.Campaign's loop, with the coordinator
// as the only stateful party.
//
// All coordinator state — campaigns, outstanding leases, uploaded
// cursors, partial cycles — persists through a pluggable Store after
// every mutation, so a coordinator crash loses nothing: the restarted
// process reloads the store and honors the leases its predecessor
// issued. The blob is binary with cached sections (state.go), so a
// request re-encodes what it changed, not the campaign.
package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

// Sentinel errors, mapped onto HTTP statuses by the handler and back
// into errors by the client.
var (
	// ErrUnknownCampaign means the campaign ID is not registered.
	ErrUnknownCampaign = errors.New("coord: unknown campaign")
	// ErrUnknownLease means the lease ID was never issued.
	ErrUnknownLease = errors.New("coord: unknown lease")
	// ErrLeaseLost means the lease expired or was superseded: the worker
	// no longer owns the shard and must discard its buffered results.
	ErrLeaseLost = errors.New("coord: lease lost")
	// ErrCampaignExists rejects a duplicate campaign ID.
	ErrCampaignExists = errors.New("coord: campaign already exists")
	// ErrUploadGap refuses a delta upload whose From lies past the
	// results the coordinator holds for the lease (an acknowledgement
	// the worker saw was overtaken by an older upload landing later).
	// The worker must resend its whole result log with From 0.
	ErrUploadGap = errors.New("coord: upload starts past the results held")
)

// CampaignSpec is the immutable configuration of a distributed campaign.
// Prefixes travel as CIDR strings so the spec is one self-describing
// JSON document on the wire and in the store.
type CampaignSpec struct {
	// ID names the campaign; all worker requests carry it.
	ID string `json:"id"`
	// Universe is the prefix partition selections are drawn from.
	Universe []string `json:"universe"`
	// Targets, when non-empty, is the cycle-0 scan plan; it defaults to
	// Universe (a full seed scan).
	Targets []string `json:"targets,omitempty"`
	// Phi is the host-coverage target φ for each re-selection.
	Phi float64 `json:"phi"`
	// MinDensity, when positive, stops each selection below the density
	// threshold.
	MinDensity float64 `json:"min_density,omitempty"`
	// Cycles is how many scan-and-reselect iterations to run.
	Cycles int `json:"cycles"`
	// Shards is how many leases each cycle is split into — the fleet's
	// parallelism. Every shard must complete before the cycle reseeds.
	Shards int `json:"shards"`
	// Workers is the scanner worker count used *inside* each leased
	// shard. It is fixed per campaign because the checkpoint cursor
	// layout depends on it: a shard checkpointed under W workers can
	// only be resumed under W workers, on any machine.
	Workers int `json:"workers"`
	// Seed is the cycle-0 permutation seed; cycle i uses Seed+i, exactly
	// like the single-node scan.Campaign.
	Seed int64 `json:"seed"`
	// Rate, when positive, caps each worker's probes per second.
	Rate float64 `json:"rate,omitempty"`
	// Exclude lists prefixes no worker may probe (the operator
	// blocklist), as CIDR strings. It travels in every lease, so a
	// fleet scan enforces the same exclusions as a single-node
	// `tass scan -exclude` — workers may layer their own local list on
	// top, but can never see less than the campaign's.
	Exclude []string `json:"exclude,omitempty"`
	// PrefixRate and PrefixBurst, when set, cap each worker's probes
	// per second into any single target prefix (the politeness layer's
	// per-prefix pacing). The per-AS knobs are not distributed: they
	// need a pfx2as origin mapping on every worker.
	PrefixRate  float64 `json:"prefix_rate,omitempty"`
	PrefixBurst int     `json:"prefix_burst,omitempty"`
	// LeaseTTL bounds how stale a silent worker can be before its shard
	// is re-leased (default 30s).
	LeaseTTL time.Duration `json:"lease_ttl"`
	// ChunkProbes is the checkpoint granularity: a worker uploads its
	// cursor after at most this many probes (default 256). It bounds
	// the work a replacement worker repeats after a hard crash.
	ChunkProbes uint64 `json:"chunk_probes"`
	// Protocol names the census snapshots built from scan results
	// (default "scan").
	Protocol string `json:"protocol,omitempty"`
}

// withDefaults fills the optional knobs.
func (s CampaignSpec) withDefaults() CampaignSpec {
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.LeaseTTL <= 0 {
		s.LeaseTTL = 30 * time.Second
	}
	if s.ChunkProbes == 0 {
		s.ChunkProbes = 256
	}
	if s.Protocol == "" {
		s.Protocol = "scan"
	}
	return s
}

// validate checks the spec and returns the parsed universe and targets
// partitions.
func (s CampaignSpec) validate() (universe, targets rib.Partition, err error) {
	if s.ID == "" {
		return universe, targets, fmt.Errorf("coord: campaign needs an ID")
	}
	if s.Cycles <= 0 {
		return universe, targets, fmt.Errorf("coord: campaign needs at least one cycle")
	}
	if s.Shards <= 0 {
		return universe, targets, fmt.Errorf("coord: campaign needs at least one shard")
	}
	if !(s.Phi > 0 && s.Phi <= 1) { // false for NaN too
		return universe, targets, fmt.Errorf("coord: φ must be in (0,1], got %v", s.Phi)
	}
	if universe, err = parsePartition(s.Universe); err != nil {
		return universe, targets, fmt.Errorf("coord: universe: %w", err)
	}
	if universe.Len() == 0 {
		return universe, targets, fmt.Errorf("coord: campaign needs a universe")
	}
	if len(s.Targets) > 0 {
		if targets, err = parsePartition(s.Targets); err != nil {
			return universe, targets, fmt.Errorf("coord: targets: %w", err)
		}
	}
	// Exclusions may overlap each other and the universe freely (they
	// form a trie, not a partition), but every entry must parse: a typo
	// discovered at lease time would stall the whole fleet.
	for _, x := range s.Exclude {
		if _, err := netaddr.ParsePrefix(x); err != nil {
			return universe, targets, fmt.Errorf("coord: exclusion %q: %w", x, err)
		}
	}
	// Every float must be finite: the spec is persisted as JSON, which
	// has no NaN or infinity.
	for _, f := range []struct {
		name string
		v    float64
	}{{"min density", s.MinDensity}, {"rate", s.Rate}, {"prefix rate", s.PrefixRate}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return universe, targets, fmt.Errorf("coord: %s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	return universe, targets, nil
}

// parsePartition parses CIDR strings into a disjoint partition.
func parsePartition(cidrs []string) (rib.Partition, error) {
	ps := make([]netaddr.Prefix, 0, len(cidrs))
	for _, s := range cidrs {
		p, err := netaddr.ParsePrefix(s)
		if err != nil {
			return rib.Partition{}, err
		}
		ps = append(ps, p)
	}
	return rib.NewPartition(ps)
}

// formatPartition renders a partition back to CIDR strings.
func formatPartition(p rib.Partition) []string {
	out := make([]string, p.Len())
	for i := 0; i < p.Len(); i++ {
		out[i] = p.Prefix(i).String()
	}
	return out
}

// Lease is one granted shard of one cycle: everything a worker needs to
// run its slice of the scan, plus the fencing token (LeaseID) that
// scopes its uploads.
type Lease struct {
	// LeaseID fences uploads: it dies when the lease expires or the
	// shard completes, so a late upload from a dead lease is rejected.
	LeaseID string `json:"lease_id"`
	// Campaign and Cycle locate the shard in the state machine.
	Campaign string `json:"campaign"`
	Cycle    int    `json:"cycle"`
	// Shard of Shards is the cycle slice, in scan.Config terms.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Workers is the scanner worker count the shard must run (and
	// resume) under.
	Workers int `json:"workers"`
	// Seed is this cycle's permutation seed (spec seed + cycle).
	Seed int64 `json:"seed"`
	// Rate caps the worker's probes per second (0 = unlimited).
	Rate float64 `json:"rate,omitempty"`
	// Exclude is the campaign's operator blocklist as CIDR strings; the
	// worker must never probe these, exactly like a single-node scan
	// with -exclude.
	Exclude []string `json:"exclude,omitempty"`
	// PrefixRate and PrefixBurst cap the worker's probes per second
	// into any single target prefix (0 = off).
	PrefixRate  float64 `json:"prefix_rate,omitempty"`
	PrefixBurst int     `json:"prefix_burst,omitempty"`
	// ChunkProbes is the checkpoint cadence the worker should scan at.
	ChunkProbes uint64 `json:"chunk_probes"`
	// TTL is the lease duration; the worker must renew (heartbeat)
	// before it elapses or the shard will be re-leased.
	TTL time.Duration `json:"ttl"`
	// Plan is the cycle's scan plan as CIDR strings.
	Plan []string `json:"plan"`
	// Checkpoint, when non-nil, is the cursor a previous (dead) holder
	// of this shard uploaded: the worker must Resume from it so the
	// cycle probes each address exactly once.
	Checkpoint *scan.Checkpoint `json:"checkpoint,omitempty"`
}

// Upload is the worker→coordinator payload of a heartbeat (partial) or
// completion (final): the cursor, the lease's new results and its probe
// counts. The worker keeps the lease's results in an append-only log
// (arrival order, sorted within each chunk); an upload carries the log
// from position From on, and the coordinator keeps the first From
// results it holds and appends the rest. From 0 replaces everything, so
// a replayed or reordered upload is harmless: the coordinator always
// holds a prefix of the log, consistent with the checkpoint and counts
// of the upload that wrote it (a chunk boundary).
type Upload struct {
	// Checkpoint is the cursor at the chunk boundary (nil on Complete:
	// a finished shard has no cursor).
	Checkpoint *scan.Checkpoint `json:"checkpoint,omitempty"`
	// From is the log position Responsive starts at: the Held count of
	// an earlier reply, or 0. A From past what the coordinator holds is
	// refused with ErrUploadGap.
	From int `json:"from,omitempty"`
	// Responsive lists the lease's results from log position From on.
	Responsive []netaddr.Addr `json:"responsive"`
	// Probed and Errors count all of this lease's probes (cumulative,
	// whatever From is).
	Probed uint64 `json:"probed"`
	Errors uint64 `json:"errors"`

	// packed sends Responsive on the wire as "packed": delta-varints
	// (appendAddrDeltas), base64 in JSON, about a quarter the size of
	// the JSON numbers. Workers pack only for a coordinator that has
	// reported Held, which reads both forms.
	packed bool
}

// MarshalJSON implements json.Marshaler.
func (u Upload) MarshalJSON() ([]byte, error) {
	type plain Upload
	if !u.packed {
		return json.Marshal(plain(u))
	}
	packed, _ := appendAddrDeltas(nil, 0, u.Responsive)
	return json.Marshal(struct {
		plain
		Responsive []netaddr.Addr `json:"responsive,omitempty"` // shadows plain's
		Packed     []byte         `json:"packed"`
	}{plain: plain(u), Packed: packed})
}

// UnmarshalJSON implements json.Unmarshaler, reading either form.
func (u *Upload) UnmarshalJSON(data []byte) error {
	type plain Upload
	w := struct {
		*plain
		Packed []byte `json:"packed"`
	}{plain: (*plain)(u)}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Packed) == 0 {
		return nil
	}
	if len(u.Responsive) > 0 {
		return fmt.Errorf("coord: upload carries both responsive and packed results")
	}
	var err error
	u.Responsive, err = decodeAddrDeltas(w.Packed)
	return err
}

// Renewal is the coordinator's answer to an accepted heartbeat.
type Renewal struct {
	// Deadline is the lease's new expiry.
	Deadline time.Time
	// Held is how many of the lease's results the coordinator holds
	// after the upload — the From of the worker's next delta. It is -1
	// when the coordinator did not report it (it predates delta
	// uploads), and the next upload must then resend everything.
	Held int
}

// CycleSummary records one completed distributed cycle.
type CycleSummary struct {
	Cycle      int     `json:"cycle"`
	Plan       int     `json:"plan_prefixes"`
	Probed     uint64  `json:"probed"`
	Errors     uint64  `json:"errors"`
	Responsive int     `json:"responsive"`
	Selected   int     `json:"selected"`
	SpaceShare float64 `json:"space_share"`
	// Releases counts lease grants for the cycle; more grants than
	// shards means at least one shard was re-leased after a failure.
	Releases int `json:"releases"`
}

// ShardStatus is the externally visible state of one shard.
type ShardStatus struct {
	Index    int       `json:"index"`
	State    string    `json:"state"` // "pending" | "leased" | "done"
	Worker   string    `json:"worker,omitempty"`
	LeaseID  string    `json:"lease_id,omitempty"`
	Deadline time.Time `json:"deadline,omitzero"`
	// Resumable reports whether a checkpoint is waiting for the next
	// holder.
	Resumable bool `json:"resumable,omitempty"`
}

// Status is the coordinator's answer to a campaign status query.
type Status struct {
	ID      string         `json:"id"`
	Cycle   int            `json:"cycle"`
	Cycles  int            `json:"cycles"`
	Done    bool           `json:"done"`
	Note    string         `json:"note,omitempty"`
	Plan    []string       `json:"plan"`
	Shards  []ShardStatus  `json:"shards"`
	History []CycleSummary `json:"history,omitempty"`
	// Responsive is the final cycle's responsive set, populated once the
	// campaign is done.
	Responsive []netaddr.Addr `json:"responsive,omitempty"`
}
