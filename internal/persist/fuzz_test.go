package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSnapshot feeds loadSnapshot files the checksum accepts: the fuzzer
// mutates a body and the test re-checksums it, so the decoder behind the CRC
// gets the hostile bytes (damage the CRC catches is
// TestCorruptSnapshotFallsBack's case). Whatever the body says, loadSnapshot
// returns an error or a Snapshot whose tokens and payload lie inside the
// file; it never panics.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	savedBody := func(s Snapshot) []byte {
		if err := SaveSnapshot(dir, s); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapshotName(s.Gen, s.Index)))
		if err != nil {
			f.Fatal(err)
		}
		return data[:len(data)-4]
	}
	empty := savedBody(Snapshot{Gen: 1})
	f.Add(empty)
	// Forty bytes claiming one token: it sits where the payload length was,
	// and nothing follows it.
	oneToken := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint64(oneToken[24:], 1)
	f.Add(oneToken)
	f.Add(savedBody(Snapshot{Gen: 3, Index: 12, Tokens: []uint64{100, 101, 102}, Payload: []byte("replica-state")}))

	path := filepath.Join(dir, "fuzzed.snap")
	f.Fuzz(func(t *testing.T, body []byte) {
		var crc uint32
		if len(body) >= 8 {
			crc = crc32.Checksum(body[8:], castagnoli)
		}
		data := binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := loadSnapshot(path)
		if err != nil {
			return
		}
		if 40+8*len(s.Tokens)+len(s.Payload) != len(body) {
			t.Fatalf("%d tokens and a %d-byte payload out of a %d-byte body", len(s.Tokens), len(s.Payload), len(body))
		}
	})
}

// FuzzReadSegment feeds readSegment and Load segment files whose frames the
// checksum accepts: the fuzzer mutates the records after the segment header
// and the test walks them by their own length fields, re-checksumming each
// frame that fits, so hostile lengths and indices reach the reader and
// Load's sort-and-contiguity pass behind a valid CRC. readSegment returns an
// error or records whose header and payload lie inside the file, in file
// order; Load keeps a contiguous run from the snapshot index and counts
// every other record read as dropped. Neither panics.
func FuzzReadSegment(f *testing.F) {
	rec := func(idx uint64, payload string) []byte {
		b, err := appendRecord(nil, idx, 100+idx, func(dst []byte) ([]byte, error) { return append(dst, payload...), nil })
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	f.Add([]byte{}, uint8(0))                             // empty body
	f.Add(rec(0, "op"), uint8(0))                         // one valid record
	f.Add(cat(rec(0, "op"), rec(1, "op")[:30]), uint8(0)) // torn tail
	pastEOF := rec(0, "op")
	binary.LittleEndian.PutUint32(pastEOF[4:], 1000)
	f.Add(pastEOF, uint8(0))                                    // length field past EOF
	f.Add(cat(rec(2, "a"), rec(2, "b"), rec(3, "c")), uint8(2)) // duplicate index above a snapshot

	// Snapshot files by index, each saved (and fsynced) once per process:
	// an iteration only copies the bytes.
	snapDir, snaps := f.TempDir(), map[uint8][]byte{}
	snapshotFile := func(t *testing.T, index uint8) []byte {
		if data, ok := snaps[index]; ok {
			return data
		}
		s := Snapshot{Gen: 1, Index: uint64(index)}
		if err := SaveSnapshot(snapDir, s); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(snapDir, snapshotName(s.Gen, s.Index)))
		if err != nil {
			t.Fatal(err)
		}
		snaps[index] = data
		return data
	}

	f.Fuzz(func(t *testing.T, body []byte, snapIndex uint8) {
		body = bytes.Clone(body)
		for off := 0; len(body)-off >= recHeaderSize; {
			n := int(binary.LittleEndian.Uint32(body[off+4:]))
			if n > len(body)-off-recHeaderSize {
				break
			}
			binary.LittleEndian.PutUint32(body[off:], crc32.Checksum(body[off+4:off+recHeaderSize+n], castagnoli))
			off += recHeaderSize + n
		}
		dir := t.TempDir()
		data := append(segmentHeader(1, 1), body...)
		path := filepath.Join(dir, segmentName(1, 1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if snapIndex > 0 {
			name := filepath.Join(dir, snapshotName(1, uint64(snapIndex)))
			if err := os.WriteFile(name, snapshotFile(t, snapIndex), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		recs, _, err := readSegment(path)
		if err != nil {
			return
		}
		off := segHeaderSize
		for k, r := range recs {
			end := off + recHeaderSize + len(r.Payload)
			if end > len(data) {
				t.Fatalf("record %d: %d-byte payload at offset %d runs past the %d-byte file", k, len(r.Payload), off, len(data))
			}
			if r.Index != binary.LittleEndian.Uint64(data[off+8:]) || !bytes.Equal(r.Payload, data[off+recHeaderSize:end]) {
				t.Fatalf("record %d does not match the frame at offset %d", k, off)
			}
			off = end
		}

		st, err := Load(dir)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		for k, r := range st.Records {
			if r.Index != st.SnapshotIndex+uint64(k) {
				t.Fatalf("Records[%d].Index = %d, want %d (snapshot index %d)", k, r.Index, st.SnapshotIndex+uint64(k), st.SnapshotIndex)
			}
		}
		if len(st.Records)+st.Dropped != len(recs) {
			t.Fatalf("%d records kept + %d dropped != %d read", len(st.Records), st.Dropped, len(recs))
		}
	})
}
