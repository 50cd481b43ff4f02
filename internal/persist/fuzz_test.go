package persist

import (
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
