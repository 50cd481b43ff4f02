// Redis-flavored durability for the miniredis server: an append-only file
// (NR's write-ahead log under the keyspace's op codec), BGSAVE-style
// background snapshots, and recover-on-start. Only the NR method persists —
// the baselines have no op log to hook.
package miniredis

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	nr "github.com/asplos17/nr"
)

// StoreCodec is the WAL codec for StoreOp (nr.Codec): fixed header, two
// length-prefixed strings, no allocation on encode.
type StoreCodec struct{}

// AppendEncode implements nr.Codec.
func (StoreCodec) AppendEncode(dst []byte, op StoreOp) ([]byte, error) {
	dst = append(dst, byte(op.Cmd))
	var flags byte
	if op.WithScores {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(op.Key)))
	dst = append(dst, op.Key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(op.Member)))
	dst = append(dst, op.Member...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(op.Score))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(op.Start)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(op.Stop)))
	return dst, nil
}

// Decode implements nr.Codec.
func (StoreCodec) Decode(data []byte) (StoreOp, error) {
	var op StoreOp
	if len(data) < 2 {
		return op, fmt.Errorf("miniredis: op record too short (%d bytes)", len(data))
	}
	op.Cmd = Cmd(data[0])
	op.WithScores = data[1]&1 != 0
	data = data[2:]
	takeString := func() (string, error) {
		if len(data) < 4 {
			return "", fmt.Errorf("miniredis: truncated string length")
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < n {
			return "", fmt.Errorf("miniredis: truncated string (%d of %d bytes)", len(data), n)
		}
		s := string(data[:n])
		data = data[n:]
		return s, nil
	}
	var err error
	if op.Key, err = takeString(); err != nil {
		return op, err
	}
	if op.Member, err = takeString(); err != nil {
		return op, err
	}
	if len(data) != 24 {
		return op, fmt.Errorf("miniredis: op record tail is %d bytes, want 24", len(data))
	}
	op.Score = math.Float64frombits(binary.LittleEndian.Uint64(data))
	op.Start = int(int64(binary.LittleEndian.Uint64(data[8:])))
	op.Stop = int(int64(binary.LittleEndian.Uint64(data[16:])))
	return op, nil
}

// Store snapshot layout: u64 seed | u64 nkeys | entries sorted by key.
// Each entry: key (u32 len + bytes) | type byte | payload. Type 0 is a
// string (u32 len + bytes); type 1 is a sorted set (u64 count, then
// members in rank order as u32 len + bytes + f64 score bits). Sorted keys
// and rank-ordered members make the encoding canonical: equal keyspaces
// produce equal bytes.

// SnapshotBytes implements nr.Snapshotter, serializing the whole keyspace
// including the store's seed.
func (st *Store) SnapshotBytes() ([]byte, error) {
	keys := make([]string, 0, st.keys.Len())
	st.keys.Range(func(k string, _ *value) bool {
		keys = append(keys, k)
		return true
	})
	sort.Strings(keys)
	out := binary.LittleEndian.AppendUint64(nil, st.seed)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(keys)))
	for _, k := range keys {
		v, _ := st.keys.Get(k)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(k)))
		out = append(out, k...)
		if v.isStr {
			out = append(out, 0)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(v.str)))
			out = append(out, v.str...)
			continue
		}
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint64(out, uint64(v.zset.Len()))
		v.zset.Range(0, v.zset.Len()-1, func(m string, sc float64) bool {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(m)))
			out = append(out, m...)
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(sc))
			return true
		})
	}
	return out, nil
}

// RestoreStore inverts SnapshotBytes. nil data yields a fresh keyspace
// with seedIfEmpty, so it plugs straight into nr.Recover's open-or-create
// contract.
func RestoreStore(data []byte, seedIfEmpty uint64) (*Store, error) {
	if data == nil {
		return NewStore(seedIfEmpty), nil
	}
	if len(data) < 16 {
		return nil, fmt.Errorf("miniredis: snapshot too short (%d bytes)", len(data))
	}
	st := NewStore(binary.LittleEndian.Uint64(data))
	nkeys := binary.LittleEndian.Uint64(data[8:])
	data = data[16:]
	takeString := func() (string, bool) {
		if len(data) < 4 {
			return "", false
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < n {
			return "", false
		}
		s := string(data[:n])
		data = data[n:]
		return s, true
	}
	for i := uint64(0); i < nkeys; i++ {
		key, ok := takeString()
		if !ok || len(data) < 1 {
			return nil, fmt.Errorf("miniredis: snapshot truncated at key %d", i)
		}
		typ := data[0]
		data = data[1:]
		switch typ {
		case 0:
			s, ok := takeString()
			if !ok {
				return nil, fmt.Errorf("miniredis: snapshot truncated in string key %q", key)
			}
			st.keys.Set(key, &value{str: s, isStr: true})
		case 1:
			if len(data) < 8 {
				return nil, fmt.Errorf("miniredis: snapshot truncated in zset header for %q", key)
			}
			n := binary.LittleEndian.Uint64(data)
			data = data[8:]
			z, _ := st.zsetFor(key, true)
			for j := uint64(0); j < n; j++ {
				m, ok := takeString()
				if !ok || len(data) < 8 {
					return nil, fmt.Errorf("miniredis: snapshot truncated in zset %q member %d", key, j)
				}
				z.Add(m, math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			}
			if n == 0 { // written before ZREM deleted a set's key with its last member
				st.keys.Delete(key)
			}
		default:
			return nil, fmt.Errorf("miniredis: snapshot has unknown value type %d for key %q", typ, key)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("miniredis: snapshot has %d trailing bytes", len(data))
	}
	return st, nil
}

// Persistence is the server-side durability controller behind BGSAVE and
// LASTSAVE: a handle on the persistent NR instance's checkpoint machinery.
type Persistence struct {
	inst   *nr.Instance[StoreOp, StoreResult]
	saving atomic.Bool
	// Recovered describes the state the server started from.
	Recovered struct {
		Replayed int
		Dropped  int
	}
}

// BgSave starts a background snapshot unless one is already running; it
// reports whether a new save was started (mirroring BGSAVE's "Background
// saving started" vs "already in progress").
func (p *Persistence) BgSave() bool {
	if !p.saving.CompareAndSwap(false, true) {
		return false
	}
	go func() {
		defer p.saving.Store(false)
		_ = p.inst.Checkpoint()
	}()
	return true
}

// Saving reports whether a background save is in flight.
func (p *Persistence) Saving() bool { return p.saving.Load() }

// LastSave returns the completion time of the last successful snapshot
// (zero time if none this process), as LASTSAVE does.
func (p *Persistence) LastSave() time.Time { return p.inst.LastSave() }

// Sync forces a WAL group-fsync barrier (not a Redis command; tests and
// shutdown paths use it).
func (p *Persistence) Sync() error { return p.inst.SyncWAL() }

// Close flushes and closes the persistent keyspace built by NewNRShared.
func (p *Persistence) Close() {
	_ = p.inst.SyncWAL()
	p.inst.Close()
}
