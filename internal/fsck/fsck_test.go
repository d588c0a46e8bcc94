package fsck_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/fsck"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

func writeSnapshot(t *testing.T, dir string) (string, *census.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	addrs := make([]netaddr.Addr, 0, 3000)
	v := uint32(1 << 20)
	for len(addrs) < 3000 {
		v += 1 + uint32(rng.Intn(250))
		addrs = append(addrs, netaddr.Addr(v))
	}
	snap := census.NewSnapshot("ssh", 3, addrs)
	path := filepath.Join(dir, "census.snap")
	if err := census.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	return path, snap
}

func flip(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestFsckSnapshot(t *testing.T) {
	path, snap := writeSnapshot(t, t.TempDir())

	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Kind != fsck.KindSnapshot {
		t.Fatalf("clean snapshot: %+v", res)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flip(t, path, st.Size()-12, 0x08)
	res, err = fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || len(res.Findings) == 0 {
		t.Fatalf("damage missed: %+v", res)
	}
	if res.Repaired {
		t.Fatal("read-only Check repaired")
	}

	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("repair: %+v", res)
	}
	if res.RecoveredHosts+res.LostAddrs != snap.Hosts() {
		t.Fatalf("recovered %d + lost %d != %d", res.RecoveredHosts, res.LostAddrs, snap.Hosts())
	}
	if err := census.VerifySnapshotFile(path); err != nil {
		t.Fatalf("repaired snapshot fails verify: %v", err)
	}
	if _, err := os.Stat(res.QuarantinePath); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
}

func TestFsckSnapshotIndexDamage(t *testing.T) {
	path, _ := writeSnapshot(t, t.TempDir())
	flip(t, path, 14, 0x01) // inside the directory: index CRC fails

	res, err := fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("unusable index not moved aside: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged file still in place")
	}
	if _, err := os.Stat(res.QuarantinePath); err != nil {
		t.Fatal("quarantined bytes missing")
	}
}

func TestFsckCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cp := &scan.Checkpoint{N: 500, Seed: 1, Shards: 1, Workers: 1, Consumed: []uint64{7}}
	path := filepath.Join(dir, "scan.checkpoint")
	if err := scan.WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Kind != fsck.KindCheckpoint {
		t.Fatalf("clean checkpoint: %+v", res)
	}

	// Legacy file: a finding, and -repair upgrades it in place.
	legacy, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	lpath := filepath.Join(dir, "legacy.checkpoint")
	if err := os.WriteFile(lpath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = fsck.Check(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || !strings.Contains(strings.Join(res.Findings, " "), "legacy") {
		t.Fatalf("legacy not flagged: %+v", res)
	}
	if _, err := scan.ReadCheckpointFile(lpath); err == nil {
		t.Fatal("the scanner loaded a legacy checkpoint; only fsck may")
	}
	res, err = fsck.Repair(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatalf("legacy not upgraded: %+v", res)
	}
	back, err := scan.ReadCheckpointFile(lpath)
	if err != nil {
		t.Fatalf("upgraded checkpoint unreadable: %v", err)
	}
	if back.N != cp.N || back.Consumed[0] != cp.Consumed[0] {
		t.Fatalf("upgrade changed the cursor: %+v", back)
	}

	// An envelope with a damaged "format" key is not a legacy file: the
	// strict legacy decode refuses its crc/body keys, so repair moves it
	// aside instead of upgrading it into a wrong cursor.
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ppath := filepath.Join(dir, "posing.checkpoint")
	posing := strings.Replace(string(good), `"format"`, `"fxrmat"`, 1)
	if err := os.WriteFile(ppath, []byte(posing), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err = fsck.Repair(ppath); err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("envelope posing as legacy not moved aside: %+v", res)
	}

	// Corrupt file: moved aside whole.
	flip(t, path, int64(len("{\"format\":\"tass-checkpoint\",\"v\":1,\"crc\":1")), 0x04)
	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("corrupt checkpoint kept in place: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint still at path")
	}
}

func TestFsckCoordState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.state")
	if err := coord.NewFileStore(path).Save([]byte(`{"cycle":1}`)); err != nil {
		t.Fatal(err)
	}
	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Kind != fsck.KindCoordState {
		t.Fatalf("clean coord state: %+v", res)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flip(t, path, st.Size()-2, 0x02)
	res, err = fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatalf("corrupt coord state passed: %+v", res)
	}
	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("corrupt coord state kept in place: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt coord state still at path")
	}
}

func TestFsckUnknown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(path, []byte("not an artifact\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != fsck.KindUnknown || res.Clean {
		t.Fatalf("unknown file: %+v", res)
	}
	// Check never touches the file; Repair quarantines it (fsck is only
	// handed paths that are supposed to be artifacts).
	if _, err := os.Stat(path); err != nil {
		t.Fatal("read-only Check moved the file")
	}
	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("unknown file not quarantined: %+v", res)
	}
	if _, err := fsck.Check(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file produced a result")
	}
}
