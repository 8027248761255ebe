package wal

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stm"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenSegment writes a fixed sequence of records through a Writer and
// returns the resulting segment bytes: one meta record, a single-record
// commit covering every value type, a two-record batch whose equal Serial
// exercises the clash tie-break, and a commit whose Serial is lower than an
// earlier one.
func goldenSegment(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncPerCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendMeta([]byte("acct:1")); err != nil {
		t.Fatal(err)
	}
	batches := [][]stm.CommitRecord{
		{{Serial: 2, Tie: 2, Writes: []stm.LoggedWrite{
			{VarID: 1, Value: int64(-10)}, {VarID: 2, Value: "hello"},
			{VarID: 3, Value: []byte{0xde, 0xad}}, {VarID: 4, Value: true},
			{VarID: 5, Value: nil}, {VarID: 6, Value: 3.5},
			{VarID: 7, Value: uint64(9)}, {VarID: 8, Value: 42},
			{VarID: 9, Value: false},
		}}},
		{
			{Serial: 5, Tie: 6, Writes: []stm.LoggedWrite{{VarID: 1, Value: int64(100)}}},
			{Serial: 5, Tie: 4, Writes: []stm.LoggedWrite{{VarID: 1, Value: int64(200)}}},
		},
		{{Serial: 3, Tie: 7, Writes: []stm.LoggedWrite{{VarID: 1, Value: int64(300)}}}},
	}
	for _, b := range batches {
		if _, err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// goldenSnapshot returns the bytes of a fixed snapshot file. It holds one
// value so the file does not depend on map iteration order.
func goldenSnapshot(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s := &Snapshot{
		Serial: 7,
		Metas:  [][]byte{[]byte("acct:1"), []byte("acct:2")},
		Values: map[uint64]Value{1: int64(42)},
	}
	if err := WriteSnapshot(dir, 1, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding changed\ngot  %x\nwant %x", name, got, want)
	}
}

// TestGoldenFormat pins the on-disk bytes of commit-record segments and
// snapshots, and checks that the pinned files still recover to the expected
// state.
func TestGoldenFormat(t *testing.T) {
	checkGolden(t, "commit.seg", goldenSegment(t))
	checkGolden(t, "snapshot.snap", goldenSnapshot(t))

	segDir := t.TempDir()
	copyFile(t, filepath.Join("testdata", "commit.seg"), segPath(segDir, 1))
	rec, err := Recover(segDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Serial != 5 || rec.Records != 3 || rec.Torn {
		t.Fatalf("segment: serial=%d records=%d torn=%v, want 5/3/false", rec.Serial, rec.Records, rec.Torn)
	}
	if !reflect.DeepEqual(rec.Metas, [][]byte{[]byte("acct:1")}) {
		t.Fatalf("segment metas = %q", rec.Metas)
	}
	want := map[uint64]stm.Value{
		1: int64(200), 2: "hello", 3: []byte{0xde, 0xad}, 4: true, 5: nil,
		6: 3.5, 7: uint64(9), 8: 42, 9: false,
	}
	if !reflect.DeepEqual(rec.Values, want) {
		t.Fatalf("segment values = %#v, want %#v", rec.Values, want)
	}

	snapDir := t.TempDir()
	copyFile(t, filepath.Join("testdata", "snapshot.snap"), snapPath(snapDir, 1))
	rec, err = Recover(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Serial != 7 || rec.SnapshotSerial != 7 || len(rec.Metas) != 2 || rec.Value(1, nil) != int64(42) {
		t.Fatalf("snapshot: serial=%d snap=%d metas=%q v1=%#v", rec.Serial, rec.SnapshotSerial, rec.Metas, rec.Value(1, nil))
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	raw, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTrailingBytesRejected: a snapshot whose checksum holds but
// whose body carries bytes past the values (for example a per-shard serial
// vector from an engine with partitioned clocks) is not crash damage. It
// must fail recovery loudly rather than be skipped or half-parsed, because
// its Serial says nothing about which log records it covers.
func TestSnapshotTrailingBytesRejected(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	body := raw[len(snapMagic)+4 : len(raw)-4]
	body = appendU32(append([]byte(nil), body...), 2) // two-entry vector
	body = appendU64(appendU64(body, 7), 3)
	crafted := append([]byte(snapMagic), frame(nil, body)...)

	dir := t.TempDir()
	path := snapPath(dir, 1)
	if err := os.WriteFile(path, crafted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(path); !errors.Is(err, errCorrupt) {
		t.Fatalf("readSnapshot: err = %v, want errCorrupt", err)
	}
	if _, err := Recover(dir); !errors.Is(err, errCorrupt) {
		t.Fatalf("Recover: err = %v, want errCorrupt", err)
	}
}

// TestUnknownRecordTypeRejected: a checksum-valid record of type 3 (the
// per-shard commit layout of partitioned-clock engines) is corruption, in
// the newest segment as well as an older one, and never a torn tail.
func TestUnknownRecordTypeRejected(t *testing.T) {
	body := []byte{3}
	body = appendU32(body, 1)                   // ntx
	body = appendU64(appendU64(body, 4), 4)     // serial, tie
	body = appendU32(appendU32(body, 1), 0)     // nshards, shard 0
	body = appendU32(body, 1)                   // nwrites
	body = appendU64(body, 1)                   // varID
	body = appendU64(append(body, tagInt64), 5) // value
	seg := append([]byte(segMagic), frame(nil, body)...)

	for _, last := range []bool{true, false} {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if !last {
			if err := os.WriteFile(segPath(dir, 2), []byte(segMagic), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := Recover(dir)
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("last=%v: Recover = %+v, %v; want errCorrupt", last, rec, err)
		}
	}
}
