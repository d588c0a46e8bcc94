package tass_test

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/tass-scan/tass"
	"github.com/tass-scan/tass/internal/netaddr"
)

func p6(s string) tass.Prefix6 {
	p, err := tass.ParsePrefix6(s)
	if err != nil {
		panic(err)
	}
	return p
}

func a6(s string) tass.Addr6 { return netaddr.MustParseAddr6(s) }

func TestNewUniverse6(t *testing.T) {
	u, err := tass.NewUniverse6([]tass.Prefix6{
		p6("2001:db8::/32"), p6("2620:0:860::/46"), p6("2a00::/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d", u.Len())
	}
	// Sorted by address.
	if u.Prefix(0) != p6("2001:db8::/32") || u.Prefix(2) != p6("2a00::/24") {
		t.Errorf("order: %v %v %v", u.Prefix(0), u.Prefix(1), u.Prefix(2))
	}
	if _, err := tass.NewUniverse6([]tass.Prefix6{
		p6("2001:db8::/32"), p6("2001:db8:1::/48"),
	}); err == nil {
		t.Error("nested prefixes accepted")
	}
}

func TestUniverse6Find(t *testing.T) {
	u, err := tass.NewUniverse6([]tass.Prefix6{p6("2001:db8::/32"), p6("2a00::/16")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		idx  int
		ok   bool
	}{
		{"2001:db8::1", 0, true},
		{"2001:db8:ffff:ffff::1", 0, true},
		{"2001:db9::", 0, false},
		{"2a00:1450::1", 1, true},
		{"2a00:ffff:ffff::", 1, true},
		{"2a01::", 0, false},
		{"2b00::", 0, false},
		{"::1", 0, false},
	}
	for _, c := range cases {
		idx, ok := u.Find(a6(c.addr))
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("Find(%s) = %d, %v; want %d, %v", c.addr, idx, ok, c.idx, c.ok)
		}
	}
}

func TestRank6AndSelect6(t *testing.T) {
	u, err := tass.NewUniverse6([]tass.Prefix6{
		p6("2001:db8::/32"),   // 8 hosts in a /32: denser
		p6("2a00::/24"),       // 8 hosts in a /24: sparser
		p6("2620:0:860::/46"), // empty
	})
	if err != nil {
		t.Fatal(err)
	}
	var seeds []tass.Addr6
	for i := 0; i < 8; i++ {
		seeds = append(seeds, tass.Addr6{Hi: 0x20010db8_00000000 + uint64(i)<<16, Lo: 1})
		seeds = append(seeds, tass.Addr6{Hi: 0x2a000000_00000000 + uint64(i)<<24, Lo: 2})
	}
	seeds = append(seeds, a6("9999::1")) // outside the universe

	ranked := tass.Rank6(seeds, u)
	if len(ranked) != 2 {
		t.Fatalf("ranked: %+v", ranked)
	}
	if ranked[0].Prefix != p6("2001:db8::/32") {
		t.Errorf("densest should be the /32, got %v", ranked[0].Prefix)
	}
	if ranked[0].Hosts != 8 || ranked[0].Coverage != 0.5 {
		t.Errorf("rank0: %+v", ranked[0])
	}
	if ranked[0].Density <= ranked[1].Density {
		t.Error("density order wrong")
	}

	sel, err := tass.Select6(seeds, u, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 || sel.HostCoverage != 0.5 {
		t.Fatalf("tass.Select6(0.4): K=%d coverage=%v", sel.K, sel.HostCoverage)
	}
	if sel.SpaceBits != 96 { // one /32 = 2^96 addresses
		t.Errorf("SpaceBits = %v, want 96", sel.SpaceBits)
	}
	if got := sel.Prefixes(); len(got) != 1 || got[0] != p6("2001:db8::/32") {
		t.Errorf("Prefixes = %v", got)
	}

	sel, err = tass.Select6(seeds, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 || sel.HostCoverage != 1 {
		t.Fatalf("tass.Select6(1): K=%d coverage=%v", sel.K, sel.HostCoverage)
	}
}

func TestSelect6Errors(t *testing.T) {
	u, _ := tass.NewUniverse6([]tass.Prefix6{p6("2001:db8::/32")})
	if _, err := tass.Select6(nil, u, 0.9); err == nil {
		t.Error("no seeds accepted")
	}
	if _, err := tass.Select6([]tass.Addr6{a6("2001:db8::1")}, u, 0); err == nil {
		t.Error("φ=0 accepted")
	}
	_, err := tass.Select6([]tass.Addr6{a6("9999::")}, u, 0.9)
	if err == nil {
		t.Fatal("all seeds outside universe accepted")
	}
	// The engine's error is wrapped, not replaced.
	if errors.Unwrap(err) == nil {
		t.Errorf("error %q does not wrap the selection error", err)
	}
}

func TestSelect6CoverageInvariant(t *testing.T) {
	// Random universes: achieved coverage always exceeds φ.
	rng := rand.New(rand.NewSource(3))
	var ps []tass.Prefix6
	for i := 0; i < 64; i++ {
		a := tass.Addr6{Hi: 0x2000_0000_0000_0000 + uint64(i)<<40}
		p, err := netaddr.Prefix6From(a, 32)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	u, err := tass.NewUniverse6(ps)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []tass.Addr6
	for i := 0; i < 3000; i++ {
		base := ps[rng.Intn(len(ps))]
		seeds = append(seeds, tass.Addr6{
			Hi: base.Addr().Hi | uint64(rng.Intn(1<<30)),
			Lo: rng.Uint64(),
		})
	}
	for _, phi := range []float64{0.3, 0.5, 0.9, 0.99, 1} {
		sel, err := tass.Select6(seeds, u, phi)
		if err != nil {
			t.Fatal(err)
		}
		if sel.HostCoverage < phi && !(phi == 1 && sel.HostCoverage == 1) {
			t.Errorf("φ=%v: coverage %v", phi, sel.HostCoverage)
		}
		for i := 1; i < len(sel.Ranked); i++ {
			if sel.Ranked[i].Density > sel.Ranked[i-1].Density {
				t.Fatal("ranking not by descending density")
			}
		}
	}
}
