// Snapshot files and the recovery loader.
//
// A snapshot file atomically (temp file + rename) persists a serialized
// replica at log index I of a generation, together with the cumulative set
// of op tokens executed before I — the token table is what makes recovery
// detectable arbitrarily far back, after the WAL records carrying those
// tokens have been pruned.
//
//	header:  magic "NRSNAP\x00\x01" | u64 generation | u64 index
//	body:    u64 tokenCount | tokens (u64 each) | u64 payloadLen | payload
//	footer:  u32 crc32c over everything after the magic
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

const snapMagic = "NRSNAP\x00\x01"

// Snapshot is one persisted replica state.
type Snapshot struct {
	Gen     uint64
	Index   uint64   // log entries [0, Index) of Gen are reflected in Payload
	Tokens  []uint64 // cumulative op tokens executed before Index
	Payload []byte   // Snapshotter-serialized replica state
}

func snapshotName(gen, index uint64) string {
	return fmt.Sprintf("snap-%016x-%016x.snap", gen, index)
}

func parseSnapshotName(name string) (gen, index uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "snap-")
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".snap")
	if !found {
		return 0, 0, false
	}
	genStr, idxStr, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	gen, err := strconv.ParseUint(genStr, 16, 64)
	if err != nil {
		return 0, 0, false
	}
	index, err = strconv.ParseUint(idxStr, 16, 64)
	if err != nil {
		return 0, 0, false
	}
	return gen, index, true
}

// SaveSnapshot writes s atomically: encode to a temp file in dir, fsync,
// close, rename to the final name, fsync the directory. A crash at any
// point leaves either no new snapshot or a complete one — never a torn
// file under the snapshot name.
func SaveSnapshot(dir string, s Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	size := 8 + 16 + 8 + 8*len(s.Tokens) + 8 + len(s.Payload) + 4
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, s.Index)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.Tokens)))
	for _, t := range s.Tokens {
		buf = binary.LittleEndian.AppendUint64(buf, t)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.Payload)))
	buf = append(buf, s.Payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[8:], castagnoli))

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	final := filepath.Join(dir, snapshotName(s.Gen, s.Index))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

func loadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	base := filepath.Base(path)
	if len(data) < 8+16+8+8+4 || string(data[:8]) != snapMagic {
		return Snapshot{}, corruptf("%s: bad snapshot header", base)
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(footer) != crc32.Checksum(body[8:], castagnoli) {
		return Snapshot{}, corruptf("%s: snapshot checksum mismatch", base)
	}
	s := Snapshot{
		Gen:   binary.LittleEndian.Uint64(body[8:]),
		Index: binary.LittleEndian.Uint64(body[16:]),
	}
	off := 24
	n := binary.LittleEndian.Uint64(body[off:])
	off += 8
	// The tokens must leave room for the payload length that follows them.
	if room := len(body) - off - 8; room < 0 || n > uint64(room)/8 {
		return Snapshot{}, corruptf("%s: snapshot token count %d overruns file", base, n)
	}
	s.Tokens = make([]uint64, n)
	for i := range s.Tokens {
		s.Tokens[i] = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	plen := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if plen != uint64(len(body)-off) {
		return Snapshot{}, corruptf("%s: snapshot payload length %d != %d", base, plen, len(body)-off)
	}
	s.Payload = body[off:]
	return s, nil
}

// snapshotFile describes one on-disk snapshot.
type snapshotFile struct {
	name  string
	gen   uint64
	index uint64
}

func listSnapshots(dir string) ([]snapshotFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var snaps []snapshotFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, index, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, snapshotFile{name: e.Name(), gen: gen, index: index})
		}
	}
	sort.Slice(snaps, func(a, b int) bool {
		if snaps[a].gen != snaps[b].gen {
			return snaps[a].gen < snaps[b].gen
		}
		return snaps[a].index < snaps[b].index
	})
	return snaps, nil
}

// HasState reports whether dir contains any persistence state (segments or
// snapshots). A fresh instance must refuse to write into a stateful dir —
// that is what Recover is for.
func HasState(dir string) (bool, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return false, err
	}
	if len(segs) > 0 {
		return true, nil
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return false, err
	}
	return len(snaps) > 0, nil
}

// RecoveryState is everything Load reconstructs from a persistence dir.
type RecoveryState struct {
	Gen             uint64 // generation recovered from (0 when dir is fresh)
	HaveSnapshot    bool
	SnapshotIndex   uint64   // replay starts here (0 without a snapshot)
	SnapshotPayload []byte   // nil without a snapshot
	Tokens          []uint64 // snapshot's cumulative token set
	// Records is the contiguous replay suffix: sorted by Index, starting
	// exactly at SnapshotIndex, no gaps. Records physically present beyond
	// the first index gap are NOT included — an un-persisted earlier op
	// would change their pre-state, so they never count as executed.
	Records []Record
	// Dropped counts records read but unusable: below the snapshot index
	// (already reflected in the payload) or beyond the first gap.
	Dropped int
	// TornSegments counts segments that ended mid-record — expected for
	// the last-written segment after a crash.
	TornSegments int
}

// Load reconstructs the durable state of dir: latest intact snapshot of
// the highest generation, plus that generation's contiguous WAL suffix.
// A fresh (or nonexistent) dir yields a zero state with Gen 0.
func Load(dir string) (*RecoveryState, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	st := &RecoveryState{}
	// The target generation is the highest present in either file kind: a
	// crash between Recover's new-generation snapshot and its pruning of
	// the old generation leaves both; the new one wins.
	for _, s := range segs {
		if s.gen > st.Gen {
			st.Gen = s.gen
		}
	}
	for _, s := range snaps {
		if s.gen > st.Gen {
			st.Gen = s.gen
		}
	}
	if st.Gen == 0 {
		return st, nil
	}
	// Latest intact snapshot of the target generation (corrupt ones are
	// skipped — an older intact snapshot plus more replay is still
	// correct, since segments are only pruned at generation boundaries).
	for i := len(snaps) - 1; i >= 0; i-- {
		if snaps[i].gen != st.Gen {
			continue
		}
		s, err := loadSnapshot(filepath.Join(dir, snaps[i].name))
		if err != nil {
			continue
		}
		st.HaveSnapshot = true
		st.SnapshotIndex = s.Index
		st.SnapshotPayload = s.Payload
		st.Tokens = s.Tokens
		break
	}
	// Collect the generation's records across all segments, then order by
	// log index. The one log follower appends in index order; the sort keeps
	// segments written when concurrent combiners appended loadable.
	var recs []Record
	for _, sf := range segs {
		if sf.gen != st.Gen {
			continue
		}
		r, torn, err := readSegment(filepath.Join(dir, sf.name))
		if err != nil {
			return nil, err
		}
		if torn {
			st.TornSegments++
		}
		recs = append(recs, r...)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
	next := st.SnapshotIndex
	for _, r := range recs {
		switch {
		case r.Index < next:
			st.Dropped++ // below the snapshot, or a duplicate
		case r.Index == next:
			st.Records = append(st.Records, r)
			next++
		default:
			// First gap: everything from here on is beyond the contiguous
			// durable prefix.
			st.Dropped += len(recs) - len(st.Records) - st.Dropped
			return st, nil
		}
	}
	return st, nil
}

// PruneBelowGen removes every segment, snapshot, and leftover temp file of
// a generation below keep. Removal errors are ignored — stale files are
// harmless (Load targets the highest generation) and will be retried on
// the next recovery.
func PruneBelowGen(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if gen, _, ok := parseSegmentName(name); ok && gen < keep {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if gen, _, ok := parseSnapshotName(name); ok && gen < keep {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
