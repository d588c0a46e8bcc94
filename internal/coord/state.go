package coord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// The state blob handed to the Store comes in two versions.
//
// v1 is one JSON document, `{"v":1,"next_lease":…,"campaigns":{…}}`,
// with prefixes as CIDR strings and addresses as decimal numbers. It is
// still read, so a coordinator upgraded mid-campaign resumes from the
// file its predecessor wrote; it is never written.
//
// v2 is binary. Integers are uvarints (deadlines a zigzag varint of Unix
// nanoseconds, 0 for none) and a section is a uvarint byte length
// followed by that many bytes:
//
//	"TASSCRD2"
//	next lease, campaign count
//	per campaign, in ID order:
//	  section spec: section JSON spec without Universe/Targets,
//	                section universe prefixes, section target prefixes
//	  cycle, done byte, section note, releases
//	  section plan prefixes, section history JSON, section final addresses
//	  shard count, then per shard:
//	    section state, section lease ID, section worker, deadline
//	    section checkpoint JSON (empty: none)
//	    base probed, base errors, current probed, current errors
//	    section base addresses, section current addresses
//
// An address section holds the addresses as delta-varints (see
// appendAddrDeltas; the count is implied); a prefix section is a count
// followed by, per prefix, the delta-varint of its first address from
// the end of the previous prefix and its length byte.
//
// Every section that is costly to build is cached and reused while its
// source is unchanged: a campaign's spec, plan, history and final set
// are encoded when they change (create, cycle end), a shard's base set
// when a lease expires, and a live lease's results incrementally as
// they grow. A heartbeat therefore encodes its own upload and copies
// the rest.
var stateMagic = []byte("TASSCRD2")

// stateV1 is the v1 JSON document.
type stateV1 struct {
	Version   int                       `json:"v"`
	NextLease uint64                    `json:"next_lease"`
	Campaigns map[string]*campaignState `json:"campaigns"`
}

// campaignEnc caches a campaign's encoded sections.
type campaignEnc struct {
	spec    []byte // never changes after create
	plan    memo
	history memo
	final   addrLog
}

// shardEnc caches a shard's encoded sections.
type shardEnc struct {
	checkpoint memo
	base       addrLog
	current    addrLog
}

// memo holds one encoded section together with the identity of the
// value it was built from: the first element's address and the length
// of a slice, or a pointer. Sources are replaced, never edited in
// place, so an unchanged identity means unchanged content.
type memo struct {
	key any
	n   int
	sec []byte // nil until built; a built section is never empty
}

func (m *memo) get(key any, n int, build func() []byte) []byte {
	if m.sec == nil || m.key != key || m.n != n {
		m.key, m.n, m.sec = key, n, build()
	}
	return m.sec
}

// identity returns the key memo compares slices by.
func identity[T any](s []T) any {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// appendAddrDeltas appends addrs as delta-varints — each address minus
// the one before it (prev for the first), wrapping, so an unsorted list
// encodes too — and returns the last address.
func appendAddrDeltas(dst []byte, prev netaddr.Addr, addrs []netaddr.Addr) ([]byte, netaddr.Addr) {
	for _, a := range addrs {
		dst = netaddr.AppendKeyUvarint(dst, netaddr.KeySub(a, prev))
		prev = a
	}
	return dst, prev
}

// decodeAddrDeltas decodes a whole delta-varint address list.
func decodeAddrDeltas(src []byte) ([]netaddr.Addr, error) {
	n := 0
	for _, b := range src {
		if b < 0x80 {
			n++
		}
	}
	if n == 0 {
		if len(src) > 0 {
			return nil, fmt.Errorf("truncated address list")
		}
		return nil, nil
	}
	out := make([]netaddr.Addr, 0, n)
	var prev netaddr.Addr
	for len(src) > 0 {
		d, k := netaddr.DecodeKeyUvarint[netaddr.Addr](src)
		if k <= 0 {
			return nil, fmt.Errorf("truncated address list")
		}
		src = src[k:]
		prev = netaddr.KeyAdd(prev, d)
		out = append(out, prev)
	}
	return out, nil
}

// addrLog is the delta-varint encoding of an address list, extended in
// place when the list it last encoded has only grown by append.
type addrLog struct {
	first *netaddr.Addr
	n     int
	last  netaddr.Addr
	enc   []byte
}

// appendSection appends addrs as an address section.
func (l *addrLog) appendSection(dst []byte, addrs []netaddr.Addr) []byte {
	if len(addrs) == 0 {
		*l = addrLog{}
		return append(dst, 0)
	}
	if l.first != &addrs[0] || len(addrs) < l.n {
		*l = addrLog{first: &addrs[0], enc: l.enc[:0]}
	}
	l.enc, l.last = appendAddrDeltas(l.enc, l.last, addrs[l.n:])
	l.n = len(addrs)
	return appendSection(dst, l.enc)
}

func appendSection(dst, body []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(body))), body...)
}

func appendJSONSection(dst []byte, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		// Only a bug can get here: validate keeps the spec's floats
		// finite, and the other values are integers and strings.
		panic(fmt.Sprintf("coord: encoding state: %v", err))
	}
	return appendSection(dst, body)
}

// appendPrefixSection appends a partition as a prefix section.
func appendPrefixSection(dst []byte, p rib.Partition) []byte {
	body := binary.AppendUvarint(make([]byte, 0, 1+3*p.Len()), uint64(p.Len()))
	var next netaddr.Addr
	for i := 0; i < p.Len(); i++ {
		pfx := p.Prefix(i)
		body = netaddr.AppendKeyUvarint(body, netaddr.KeySub(pfx.First(), next))
		body = append(body, byte(pfx.Bits()))
		next = pfx.Last() + 1
	}
	return appendSection(dst, body)
}

// encodeState builds the v2 blob from the cached sections, re-encoding
// only what changed since the last save.
func (c *Coordinator) encodeState() []byte {
	out := make([]byte, 0, c.stateSize+c.stateSize/8+64)
	out = append(out, stateMagic...)
	out = binary.AppendUvarint(out, c.nextLease)
	out = binary.AppendUvarint(out, uint64(len(c.campaigns)))
	for _, id := range slices.Sorted(maps.Keys(c.campaigns)) {
		out = c.campaigns[id].appendTo(out)
	}
	c.stateSize = len(out)
	return out
}

func (cs *campaignState) appendTo(out []byte) []byte {
	e := &cs.enc
	if e.spec == nil {
		spec := cs.Spec
		spec.Universe, spec.Targets = nil, nil
		var body []byte
		body = appendJSONSection(body, spec)
		body = appendPrefixSection(body, cs.universe)
		body = appendPrefixSection(body, cs.targets)
		e.spec = appendSection(nil, body)
	}
	out = append(out, e.spec...)
	out = binary.AppendUvarint(out, uint64(cs.Cycle))
	out = append(out, boolByte(cs.Done))
	out = appendSection(out, []byte(cs.Note))
	out = binary.AppendUvarint(out, uint64(cs.Releases))
	out = append(out, e.plan.get(identity(cs.Plan), len(cs.Plan), func() []byte {
		return appendPrefixSection(nil, cs.plan)
	})...)
	out = append(out, e.history.get(identity(cs.History), len(cs.History), func() []byte {
		return appendJSONSection(nil, cs.History)
	})...)
	out = e.final.appendSection(out, cs.Final)
	out = binary.AppendUvarint(out, uint64(len(cs.Shards)))
	for _, sh := range cs.Shards {
		out = sh.appendTo(out)
	}
	return out
}

func (sh *shardState) appendTo(out []byte) []byte {
	if sh.enc == nil {
		sh.enc = &shardEnc{}
	}
	out = appendSection(out, []byte(sh.State))
	out = appendSection(out, []byte(sh.LeaseID))
	out = appendSection(out, []byte(sh.Worker))
	var deadline int64
	if !sh.Deadline.IsZero() {
		deadline = sh.Deadline.UnixNano()
	}
	out = binary.AppendVarint(out, deadline)
	out = append(out, sh.enc.checkpoint.get(sh.Checkpoint, 0, func() []byte {
		if sh.Checkpoint == nil {
			return appendSection(nil, nil)
		}
		return appendJSONSection(nil, sh.Checkpoint)
	})...)
	out = binary.AppendUvarint(out, sh.BaseProbed)
	out = binary.AppendUvarint(out, sh.BaseErrors)
	out = binary.AppendUvarint(out, sh.CurProbed)
	out = binary.AppendUvarint(out, sh.CurErrors)
	out = sh.enc.base.appendSection(out, sh.Base)
	return sh.enc.current.appendSection(out, sh.Current)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decodeState loads a v1 or v2 blob into c. Every campaign is checked
// for internal consistency before it is accepted; any failure refuses
// the whole blob.
func (c *Coordinator) decodeState(data []byte) error {
	var campaigns []*campaignState
	switch {
	case bytes.HasPrefix(data, stateMagic):
		r := &stateReader{b: data[len(stateMagic):]}
		c.nextLease = r.uvarint()
		n := r.count()
		for i := 0; i < n && r.err == nil; i++ {
			campaigns = append(campaigns, r.campaign())
		}
		if r.err == nil && len(r.b) != 0 {
			r.fail("%d trailing bytes", len(r.b))
		}
		if r.err != nil {
			return r.err
		}
	case len(data) >= len(stateMagic) && bytes.HasPrefix(data, stateMagic[:len(stateMagic)-1]):
		return fmt.Errorf("coord: saved state version %q is newer than this binary", data[len(stateMagic)-1:len(stateMagic)])
	default:
		var st stateV1
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("coord: decoding saved state: %w", err)
		}
		if st.Version > 1 {
			return fmt.Errorf("coord: saved state version %d is newer than this binary", st.Version)
		}
		c.nextLease = st.NextLease
		for id, cs := range st.Campaigns {
			if cs == nil || cs.Spec.ID != id {
				return fmt.Errorf("coord: saved state: campaign %q is malformed", id)
			}
			if err := cs.parseV1(); err != nil {
				return err
			}
			campaigns = append(campaigns, cs)
		}
	}
	for _, cs := range campaigns {
		if err := cs.check(); err != nil {
			return err
		}
		if _, dup := c.campaigns[cs.Spec.ID]; dup {
			return fmt.Errorf("coord: saved state: campaign %q appears twice", cs.Spec.ID)
		}
		c.campaigns[cs.Spec.ID] = cs
	}
	return nil
}

// parseV1 rebuilds the partition caches of a v1 campaign from its CIDR
// strings and puts the spec's prefix lists in the canonical order the
// v2 encoding reloads them in.
func (cs *campaignState) parseV1() error {
	var err error
	id := cs.Spec.ID
	if cs.universe, err = parsePartition(cs.Spec.Universe); err != nil {
		return fmt.Errorf("coord: campaign %s universe: %w", id, err)
	}
	if cs.targets, err = parsePartition(cs.Spec.Targets); err != nil {
		return fmt.Errorf("coord: campaign %s targets: %w", id, err)
	}
	if cs.plan, err = parsePartition(cs.Plan); err != nil {
		return fmt.Errorf("coord: campaign %s plan: %w", id, err)
	}
	cs.Spec.Universe = formatPartition(cs.universe)
	cs.Spec.Targets = nil
	if cs.targets.Len() > 0 {
		cs.Spec.Targets = formatPartition(cs.targets)
	}
	if len(cs.Plan) == 0 {
		cs.Plan = nil
	}
	return nil
}

// check rejects a loaded campaign the state machine could not run.
func (cs *campaignState) check() error {
	if cs.Spec.ID == "" || cs.universe.Len() == 0 {
		return fmt.Errorf("coord: saved state: campaign %q has no universe", cs.Spec.ID)
	}
	if len(cs.Shards) != cs.Spec.Shards || cs.Cycle < 0 || cs.Releases < 0 {
		return fmt.Errorf("coord: saved state: campaign %q is inconsistent", cs.Spec.ID)
	}
	for i, sh := range cs.Shards {
		if sh == nil {
			return fmt.Errorf("coord: saved state: campaign %q shard %d missing", cs.Spec.ID, i)
		}
		switch sh.State {
		case shardPending, shardDone:
		case shardLeased:
			if sh.LeaseID == "" {
				return fmt.Errorf("coord: saved state: campaign %q shard %d leased without a lease ID", cs.Spec.ID, i)
			}
		default:
			return fmt.Errorf("coord: saved state: campaign %q shard %d in unknown state %q", cs.Spec.ID, i, sh.State)
		}
	}
	return nil
}

// stateReader decodes a v2 blob. The first error sticks; every later
// read returns zero values, so callers check once at the end.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("coord: decoding saved state: "+format, args...)
	}
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a length or count, bounded by the bytes left: every
// counted item takes at least one byte, so a corrupt count can never
// size an allocation past the blob.
func (r *stateReader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		r.fail("count %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

// int reads a non-negative counter that must fit an int32.
func (r *stateReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("counter %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b
}

// section returns a reader over the next section.
func (r *stateReader) section() *stateReader {
	n := r.count()
	if r.err != nil {
		return &stateReader{err: r.err}
	}
	s := &stateReader{b: r.b[:n]}
	r.b = r.b[n:]
	return s
}

// done folds a fully consumed sub-reader's error back into r.
func (r *stateReader) done(s *stateReader, what string) {
	if s.err == nil && len(s.b) != 0 {
		s.fail("%s: %d trailing bytes", what, len(s.b))
	}
	if r.err == nil && s.err != nil {
		r.err = s.err
	}
}

func (r *stateReader) str() string {
	s := r.section()
	out := string(s.b)
	s.b = nil
	r.done(s, "string")
	return out
}

func (r *stateReader) json(v any, what string) {
	s := r.section()
	if s.err == nil && len(s.b) > 0 {
		if err := json.Unmarshal(s.b, v); err != nil {
			s.fail("%s: %v", what, err)
		}
	}
	s.b = nil
	r.done(s, what)
}

func (r *stateReader) addrs() []netaddr.Addr {
	s := r.section()
	if s.err != nil {
		r.done(s, "address list")
		return nil
	}
	out, err := decodeAddrDeltas(s.b)
	if err != nil {
		r.fail("%v", err)
	}
	return out
}

func (r *stateReader) prefixes() rib.Partition {
	s := r.section()
	n := s.count()
	ps := make([]netaddr.Prefix, 0, n)
	var next netaddr.Addr
	for i := 0; i < n && s.err == nil; i++ {
		d, k := netaddr.DecodeKeyUvarint[netaddr.Addr](s.b)
		if k <= 0 {
			s.fail("prefix list truncated")
			break
		}
		s.b = s.b[k:]
		first := netaddr.KeyAdd(next, d)
		p, err := netaddr.PrefixFrom(first, int(s.byte()))
		if err == nil && p.First() != first {
			err = fmt.Errorf("%v has host bits set", first)
		}
		if err != nil {
			s.fail("prefix list: %v", err)
			break
		}
		ps = append(ps, p)
		next = p.Last() + 1
	}
	r.done(s, "prefix list")
	if r.err != nil {
		return rib.Partition{}
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		r.fail("prefix list: %v", err)
	}
	return part
}

func (r *stateReader) campaign() *campaignState {
	cs := &campaignState{}
	spec := r.section()
	spec.json(&cs.Spec, "spec")
	cs.universe = spec.prefixes()
	cs.targets = spec.prefixes()
	r.done(spec, "spec")
	cs.Spec.Universe = formatPartition(cs.universe)
	if cs.targets.Len() > 0 {
		cs.Spec.Targets = formatPartition(cs.targets)
	}
	cs.Cycle = r.int()
	switch r.byte() {
	case 0:
	case 1:
		cs.Done = true
	default:
		r.fail("campaign %q: bad done flag", cs.Spec.ID)
	}
	cs.Note = r.str()
	cs.Releases = r.int()
	cs.plan = r.prefixes()
	if cs.plan.Len() > 0 {
		cs.Plan = formatPartition(cs.plan)
	}
	r.json(&cs.History, "history")
	cs.Final = r.addrs()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		cs.Shards = append(cs.Shards, r.shard())
	}
	return cs
}

func (r *stateReader) shard() *shardState {
	sh := &shardState{
		State:   r.str(),
		LeaseID: r.str(),
		Worker:  r.str(),
	}
	if d := r.varint(); d != 0 {
		sh.Deadline = time.Unix(0, d).UTC()
	}
	r.json(&sh.Checkpoint, "checkpoint")
	sh.BaseProbed = r.uvarint()
	sh.BaseErrors = r.uvarint()
	sh.CurProbed = r.uvarint()
	sh.CurErrors = r.uvarint()
	sh.Base = r.addrs()
	sh.Current = r.addrs()
	return sh
}
