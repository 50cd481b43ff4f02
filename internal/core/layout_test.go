package core

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

// TestSlotLayout pins the combining slot's cache-line discipline (§5.2) at
// the layout the hand-computed pad was sized for: the protocol word (state)
// and the response word (resp) on distinct 64-byte lines, with exact
// offsets on 64-bit targets so any field insertion or resize shows up as a
// diff, not a mystery slowdown.
func TestSlotLayout(t *testing.T) {
	var s slot[int64, int64]
	stateOff := unsafe.Offsetof(s.state)
	respOff := unsafe.Offsetof(s.resp)
	if stateOff/64 == respOff/64 {
		t.Errorf("slot.state (offset %d) and slot.resp (offset %d) share a 64-byte cache line", stateOff, respOff)
	}
	if strconv.IntSize != 64 {
		return
	}
	if stateOff != 16 {
		t.Errorf("slot.state offset = %d, want 16 (op 0-8, seq 8-12, class 12-16)", stateOff)
	}
	if respOff != 72 {
		t.Errorf("slot.resp offset = %d, want 72 (state's line padded out at 20-72)", respOff)
	}
	if size := unsafe.Sizeof(s); size != 96 {
		t.Errorf("slot[int64,int64] size = %d, want 96 (resp 72-80, err 80-96)", size)
	}
}

// TestReplicaCountersLayout pins the node-local op counters (opCounters) to
// one cache line of their own inside the replica: a full line of padding on
// either side, so no field every node reads can share their line whatever
// the struct's base alignment.
func TestReplicaCountersLayout(t *testing.T) {
	var r replica[int64, int64]
	if size := unsafe.Sizeof(r.counters); size != 64 {
		t.Errorf("opCounters size = %d, want 64", size)
	}
	off := unsafe.Offsetof(r.counters)
	if before := unsafe.Offsetof(r.registered) + unsafe.Sizeof(r.registered); off < before+64 {
		t.Errorf("replica.counters at offset %d, less than a line after registered (ends at %d)", off, before)
	}
	if end := off + unsafe.Sizeof(r.counters); unsafe.Sizeof(r) < end+64 {
		t.Errorf("replica ends %d bytes after its counters, want >= 64", unsafe.Sizeof(r)-end)
	}
}

// TestEntryLogCell pins what NR actually logs: the op plus one 8-byte word,
// which carries the entry's tag (the op token with the entry kind in its
// log-index bits) under the log's lap code, so an int64 op's cell is 16
// bytes. Log cells are deliberately unpadded (internal/log's
// TestEntryLayout).
func TestEntryLogCell(t *testing.T) {
	inst, err := New[int64, int64](func() Sequential[int64, int64] { return new(sum) }, Options{LogEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if cell := inst.MemoryBytes() / 1024; cell != 16 {
		t.Errorf("log cell of an int64 op = %d bytes, want 16 (op 8 + tag and lap code 8)", cell)
	}
}

// TestLogCellsOwnLines: an op of 56 bytes, the server's StoreOp, makes a
// 64-byte cell, and the allocator page-aligns a log of at least 512 such
// cells (32 KiB), the default 64K-entry log included, so every cell is one
// 64-byte line and no batch boundary shares one (DESIGN.md §5b).
func TestLogCellsOwnLines(t *testing.T) {
	for _, entries := range []int{0, 512} {
		inst, err := New[lineOp, int64](func() Sequential[lineOp, int64] { return lineSeq{} }, Options{LogEntries: entries})
		if err != nil {
			t.Fatal(err)
		}
		cells := reflect.ValueOf(inst.logs[0]).Elem().FieldByName("entries")
		if size := cells.Type().Elem().Size(); size != 64 {
			t.Fatalf("log cell of a 56-byte op = %d bytes, want 64", size)
		}
		if first := cells.Pointer(); first%64 != 0 {
			t.Errorf("%d-entry log: first cell at %#x, not on a 64-byte boundary", cells.Len(), first)
		}
	}
}

// lineOp is an op of 56 bytes, and lineSeq a Sequential over it that does
// nothing.
type lineOp struct{ _ [7]int64 }

type lineSeq struct{}

func (lineSeq) Execute(lineOp) int64 { return 0 }

func (lineSeq) IsReadOnly(lineOp) bool { return true }

// sum is a Sequential over int64 ops: it adds each op to its total.
type sum int64

func (s *sum) Execute(op int64) int64 { *s += sum(op); return int64(*s) }

func (s *sum) IsReadOnly(op int64) bool { return op == 0 }

// span is one owner's hot memory: [lo, hi) in bytes.
type span struct{ lo, hi uintptr }

// fieldSpans returns the spans of the named (non-blank) fields of the
// struct of type typ at base: padding fields are nobody's hot words.
func fieldSpans(base unsafe.Pointer, typ reflect.Type) []span {
	var out []span
	for k := 0; k < typ.NumField(); k++ {
		f := typ.Field(k)
		if f.Name == "_" {
			continue
		}
		lo := uintptr(base) + f.Offset
		out = append(out, span{lo, lo + f.Type.Size()})
	}
	return out
}

// TestNodeHotWordsOwnTheirLines checks, by address on a live 2-node
// instance with a follower, that no 64-byte line holds the hot words of
// two nodes, or of a node and the follower: each (replica, log) pair's
// localTail, replicaLog fields and readers-writer lock (writer flag,
// readers header, per-reader flags), and each replica's slots, cross
// applier and counters. Field offsets say nothing of where the allocator
// puts two nodes' objects next to each other, so this reads addresses.
func TestNodeHotWordsOwnTheirLines(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	fol, err := inst.Follow()
	if err != nil {
		t.Fatal(err)
	}
	owners := map[uintptr]string{} // line -> owner
	claim := func(owner string, spans ...span) {
		for _, s := range spans {
			for line := s.lo / 64; line <= (s.hi-1)/64; line++ {
				if prev, ok := owners[line]; ok && prev != owner {
					t.Errorf("cache line %#x holds hot words of %s and %s", line*64, prev, owner)
				}
				owners[line] = owner
			}
		}
	}
	word := func(p unsafe.Pointer, size uintptr) span { return span{uintptr(p), uintptr(p) + size} }
	claim("the follower", word(unsafe.Pointer(fol.tail), 8))
	for n, r := range inst.replicas {
		owner := "node " + strconv.Itoa(n)
		claim(owner,
			word(unsafe.Pointer(&r.crossApply), unsafe.Sizeof(r.crossApply)),
			word(unsafe.Pointer(&r.crossDone), 8),
			word(unsafe.Pointer(&r.counters), unsafe.Sizeof(r.counters)),
			word(unsafe.Pointer(&r.slots[0]), uintptr(len(r.slots))*unsafe.Sizeof(r.slots[0])))
		for c := range r.logs {
			lg := &r.logs[c]
			claim(owner, word(unsafe.Pointer(lg.localTail), 8))
			claim(owner, fieldSpans(unsafe.Pointer(lg), reflect.TypeOf(lg).Elem())...)
			rw := reflect.ValueOf(lg.rw).Elem()
			claim(owner, fieldSpans(unsafe.Pointer(lg.rw), rw.Type())...)
			readers := rw.FieldByName("readers")
			claim(owner, word(unsafe.Pointer(readers.Pointer()), uintptr(readers.Len())*readers.Type().Elem().Size()))
		}
	}
}
