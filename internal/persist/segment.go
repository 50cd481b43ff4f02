// Segment file format and the torn-tail-tolerant reader.
//
// A segment file is a 24-byte header followed by a run of records:
//
//	header:  magic "NRWAL\x00\x00\x01" | u64 generation | u64 sequence
//	record:  u32 crc32c | u32 payloadLen | u64 index | u64 token | payload
//
// All integers little-endian. The CRC covers bytes [4, 24+payloadLen) of
// the record — everything but the CRC field itself. A crash can tear the
// tail of the last-written segment mid-record; the reader detects this
// (short header, short payload, or CRC mismatch) and stops, reporting the
// record count read so far. Records never straddle segment boundaries.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segMagic      = "NRWAL\x00\x00\x01"
	segHeaderSize = 24
	recHeaderSize = 24
	// maxPayload bounds a single record so a corrupt length field cannot
	// drive a huge allocation or skip the rest of the file silently.
	maxPayload = 1 << 30
)

// segmentName renders the file name for (generation, sequence). Both are
// zero-padded so lexical order equals numeric order.
func segmentName(gen, seq uint64) string {
	return fmt.Sprintf("seg-%016x-%08d.wal", gen, seq)
}

// parseSegmentName decodes a segment file name; ok=false for other files.
func parseSegmentName(name string) (gen, seq uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "seg-")
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".wal")
	if !found {
		return 0, 0, false
	}
	genStr, seqStr, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	gen, err := strconv.ParseUint(genStr, 16, 64)
	if err != nil {
		return 0, 0, false
	}
	seq, err = strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return gen, seq, true
}

// appendRecord frames (idx, token, payload already appended by enc) into
// dst. It reserves the record header, calls enc to append the payload in
// place, then back-fills length, index, token, and CRC. enc appends the
// payload to its argument and returns the extended slice; on enc error the
// reservation is rolled back and dst is returned unchanged.
func appendRecord(dst []byte, idx, token uint64, enc func([]byte) ([]byte, error)) ([]byte, error) {
	base := len(dst)
	var zero [recHeaderSize]byte
	dst = append(dst, zero[:]...)
	out, err := enc(dst)
	if err != nil {
		return dst[:base], err
	}
	dst = out
	payloadLen := len(dst) - base - recHeaderSize
	if payloadLen < 0 || payloadLen > maxPayload {
		return dst[:base], corruptf("encoder produced invalid payload length %d", payloadLen)
	}
	hdr := dst[base:]
	binary.LittleEndian.PutUint32(hdr[4:], uint32(payloadLen))
	binary.LittleEndian.PutUint64(hdr[8:], idx)
	binary.LittleEndian.PutUint64(hdr[16:], token)
	crc := crc32.Checksum(hdr[4:recHeaderSize+payloadLen], castagnoli)
	binary.LittleEndian.PutUint32(hdr[0:], crc)
	return dst, nil
}

// segmentHeader renders a segment file header.
func segmentHeader(gen, seq uint64) []byte {
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	return hdr
}

// readSegment reads every intact record of one segment file. torn reports
// whether the file ended mid-record (or with a CRC mismatch) — expected on
// the last segment after a crash, suspicious elsewhere. Record payloads
// alias the file buffer.
func readSegment(path string) (recs []Record, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if len(data) < segHeaderSize {
		return nil, len(data) > 0, nil // header itself torn
	}
	if string(data[:8]) != segMagic {
		return nil, false, corruptf("%s: bad segment magic", filepath.Base(path))
	}
	off := segHeaderSize
	for off < len(data) {
		if len(data)-off < recHeaderSize {
			return recs, true, nil
		}
		hdr := data[off:]
		payloadLen := int(binary.LittleEndian.Uint32(hdr[4:]))
		if payloadLen > maxPayload || len(data)-off-recHeaderSize < payloadLen {
			return recs, true, nil
		}
		want := binary.LittleEndian.Uint32(hdr[0:])
		got := crc32.Checksum(hdr[4:recHeaderSize+payloadLen], castagnoli)
		if want != got {
			return recs, true, nil
		}
		recs = append(recs, Record{
			Index:   binary.LittleEndian.Uint64(hdr[8:]),
			Token:   binary.LittleEndian.Uint64(hdr[16:]),
			Payload: hdr[recHeaderSize : recHeaderSize+payloadLen],
		})
		off += recHeaderSize + payloadLen
	}
	return recs, false, nil
}

// segmentFile describes one on-disk segment.
type segmentFile struct {
	name string
	gen  uint64
	seq  uint64
}

// RollBackTo rewinds dir's WAL to the on-disk state a crash exactly at
// sync boundary b would have left: b.Segment is truncated to b.Offset and
// every higher-sequence segment of the same generation is removed (those
// bytes were written after the boundary). Snapshots are untouched — the
// caller chooses boundaries relative to its own checkpoints. This is the
// chaos harness's in-process crash-point injector.
func RollBackTo(dir string, b SyncInfo) error {
	gen, seq, ok := parseSegmentName(b.Segment)
	if !ok {
		return fmt.Errorf("persist: RollBackTo: %q is not a segment name", b.Segment)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.gen != gen {
			continue
		}
		path := filepath.Join(dir, s.name)
		switch {
		case s.seq < seq:
			// Fully durable before the boundary; keep.
		case s.seq == seq:
			if err := os.Truncate(path, b.Offset); err != nil {
				return err
			}
		default:
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// listSegments returns dir's segment files sorted by (gen, seq).
func listSegments(dir string) ([]segmentFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segmentFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentFile{name: e.Name(), gen: gen, seq: seq})
		}
	}
	sort.Slice(segs, func(a, b int) bool {
		if segs[a].gen != segs[b].gen {
			return segs[a].gen < segs[b].gen
		}
		return segs[a].seq < segs[b].seq
	})
	return segs, nil
}
