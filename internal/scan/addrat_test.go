package scan

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// searchAddrAt is the reference for Scanner.addrAt: a plain binary
// search over the cumulative sizes of the whole partition.
func searchAddrAt(part rib.Partition, cum []uint64, idx uint64) (netaddr.Addr, int) {
	i := sort.Search(len(cum), func(i int) bool { return cum[i] > idx })
	off := idx
	if i > 0 {
		off -= cum[i-1]
	}
	return part.Prefix(i).First() + netaddr.Addr(off), i
}

// checkAddrAt compares addrAt with the reference at index 0, at both
// sides of every prefix boundary (cum[i]−1 and cum[i]), and at the
// extra indexes given, and checks the table's size bound.
func checkAddrAt(t testing.TB, ps []netaddr.Prefix, extra ...uint64) {
	t.Helper()
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Targets: part, Prober: noProber{}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.pfxAt); n > 2*part.Len() {
		t.Fatalf("%d prefixes: table has %d entries, bound is %d", part.Len(), n, 2*part.Len())
	}
	total := part.AddressCount()
	check := func(idx uint64) {
		if idx >= total {
			return
		}
		gotA, gotI := s.addrAt(idx)
		wantA, wantI := searchAddrAt(part, s.cum, idx)
		if gotA != wantA || gotI != wantI {
			t.Fatalf("%d prefixes, index %d: addrAt = (%v, %d), search = (%v, %d)", part.Len(), idx, gotA, gotI, wantA, wantI)
		}
	}
	check(0)
	for _, c := range s.cum {
		check(c - 1)
		check(c)
	}
	for _, idx := range extra {
		check(idx % total)
	}
}

type noProber struct{}

func (noProber) Probe(_ context.Context, a netaddr.Addr) (Result, error) {
	return Result{Addr: a}, nil
}

// partitionFrom turns bytes into a valid partition: each byte pair is a
// prefix length (0–32) and a gap, in units of that prefix's size, after
// the previous prefix. Prefixes are aligned and never pass the top of
// the address space, so any input gives a partition.
func partitionFrom(b []byte) []netaddr.Prefix {
	var ps []netaddr.Prefix
	var cur uint64
	for i := 0; i+1 < len(b); i += 2 {
		bits := int(b[i] % 33)
		size := uint64(1) << (32 - bits)
		cur = (cur + uint64(b[i+1]%4)*size + size - 1) &^ (size - 1)
		if cur+size > 1<<32 {
			break
		}
		ps = append(ps, netaddr.MustPrefixFrom(netaddr.Addr(cur), bits))
		cur += size
	}
	return ps
}

func TestAddrAtMatchesSearch(t *testing.T) {
	hosts := func(base netaddr.Addr, n, stride int) []netaddr.Prefix {
		var ps []netaddr.Prefix
		for i := 0; i < n; i++ {
			ps = append(ps, netaddr.MustPrefixFrom(base+netaddr.Addr(i*stride), 32))
		}
		return ps
	}
	cases := map[string][]netaddr.Prefix{
		"one /32":      {pfx("192.0.2.7/32")},
		"one /8":       {pfx("10.0.0.0/8")},
		"whole space":  {pfx("0.0.0.0/0")},
		"all /32s":     hosts(0x0A000000, 1000, 3),
		"adjacent /32": hosts(0x0A000000, 257, 1),
		"/8 beside /32s": append(append(hosts(0x09FFFF00, 200, 1), pfx("10.0.0.0/8")),
			hosts(0x0B000000, 300, 7)...),
		"top of space": append(hosts(0xFFFFFF00, 256, 1), pfx("255.255.254.0/24"), pfx("128.0.0.0/2"), pfx("192.0.0.0/3")),
		"halves":       {pfx("0.0.0.0/1"), pfx("128.0.0.0/1")},
	}
	for name, ps := range cases {
		t.Run(name, func(t *testing.T) { checkAddrAt(t, ps) })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := make([]byte, 2*(1+rng.Intn(300)))
		rng.Read(b)
		if i%4 == 0 {
			for j := 0; j < len(b); j += 2 {
				b[j] = 24 + b[j]%9 // mostly small prefixes
			}
		}
		ps := partitionFrom(b)
		if len(ps) == 0 {
			continue
		}
		extra := make([]uint64, 64)
		for j := range extra {
			extra[j] = rng.Uint64()
		}
		checkAddrAt(t, ps, extra...)
	}
}

// FuzzAddrAt checks addrAt against the plain binary search on
// partitions built from the fuzz input.
func FuzzAddrAt(f *testing.F) {
	f.Add([]byte{8, 0}, uint64(0))
	f.Add([]byte{0, 0}, uint64(1<<32-1))
	f.Add([]byte{32, 0, 32, 0, 32, 1, 32, 3, 8, 0, 32, 0}, uint64(12345))
	f.Add([]byte{1, 1, 32, 3, 32, 0}, uint64(1<<31))
	f.Fuzz(func(t *testing.T, b []byte, idx uint64) {
		ps := partitionFrom(b)
		if len(ps) == 0 {
			return
		}
		checkAddrAt(t, ps, idx)
	})
}
