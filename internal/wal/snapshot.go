package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Snapshot is a point-in-time copy of engine state: the serialization clock
// S the snapshot read at, the application metadata records accepted so far
// (in append order — they define variable identity for replay), and the
// value of every variable as observed by one read-only transaction.
//
// The snapshot protocol (DESIGN.md §16) is: rotate the log to a fresh
// segment, run a read-only transaction that reads EVERY variable and capture
// its start clock as Serial, write the snapshot file, then prune segments
// below the rotation point. Because the read-only transaction semi-visibly
// stamps every variable it reads, no later committer can time-warp a version
// below Serial past it (the triad rule makes such a committer both source
// and target), so every record in the pruned segments is value-covered by
// the snapshot and every surviving record with Serial > S replays on top.
type Snapshot struct {
	Serial uint64
	Metas  [][]byte
	Values map[uint64]Value
}

// Value aliases stm.Value without forcing snapshot consumers to import stm.
type Value = any

// WriteSnapshot durably writes s as the snapshot covering segments below
// seq: temp file, fsync, atomic rename, directory fsync. A crash at any
// point leaves either no snap-seq file or a complete one.
func WriteSnapshot(dir string, seq uint64, s *Snapshot) error {
	body := []byte{}
	body = appendU64(body, s.Serial)
	body = appendU32(body, uint32(len(s.Metas)))
	for _, m := range s.Metas {
		body = appendU32(body, uint32(len(m)))
		body = append(body, m...)
	}
	body = appendU32(body, uint32(len(s.Values)))
	for id, v := range s.Values {
		body = appendU64(body, id)
		var err error
		if body, err = encodeValue(body, v); err != nil {
			return err
		}
	}

	path := snapPath(dir, seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	out := append([]byte(snapMagic), appendU32(nil, uint32(len(body)))...)
	out = append(out, body...)
	out = appendU32(out, crc32.ChecksumIEEE(body))
	if _, err := f.Write(out); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readSnapshot parses and CRC-checks one snapshot file.
func readSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(snapMagic)+8 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, errCorrupt
	}
	raw = raw[len(snapMagic):]
	n := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	if n < 0 || len(raw) != n+4 {
		return nil, errCorrupt
	}
	body, sum := raw[:n], binary.LittleEndian.Uint32(raw[n:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, errCorrupt
	}
	s, err := parseSnapshot(body)
	if err != nil {
		return nil, errSnapshotFormat
	}
	return s, nil
}

// errSnapshotFormat reports a snapshot whose framing and checksum hold but
// whose body does not parse, trailing bytes included. Snapshots are written
// whole (temp file, fsync, rename), so such a file is not crash damage: it
// was written in a format this reader does not know, and guessing at it
// could misjudge which log records the snapshot covers.
var errSnapshotFormat = fmt.Errorf("%w: snapshot body does not match the format", errCorrupt)

// parseSnapshot decodes a checksum-verified snapshot body.
func parseSnapshot(body []byte) (*Snapshot, error) {
	s := &Snapshot{Values: make(map[uint64]Value)}
	if len(body) < 12 {
		return nil, errCorrupt
	}
	s.Serial = binary.LittleEndian.Uint64(body)
	nm := int(binary.LittleEndian.Uint32(body[8:]))
	body = body[12:]
	for i := 0; i < nm; i++ {
		if len(body) < 4 {
			return nil, errCorrupt
		}
		l := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if l < 0 || len(body) < l {
			return nil, errCorrupt
		}
		s.Metas = append(s.Metas, append([]byte(nil), body[:l]...))
		body = body[l:]
	}
	if len(body) < 4 {
		return nil, errCorrupt
	}
	nv := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	for i := 0; i < nv; i++ {
		if len(body) < 8 {
			return nil, errCorrupt
		}
		id := binary.LittleEndian.Uint64(body)
		body = body[8:]
		val, rest, err := decodeValue(body)
		if err != nil {
			return nil, err
		}
		body = rest
		s.Values[id] = val
	}
	if len(body) != 0 {
		return nil, errCorrupt
	}
	return s, nil
}
