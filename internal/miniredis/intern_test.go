package miniredis

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestInternTableConcurrent: goroutines own overlapping pairs through a
// table of one set, seven slots for the eight pairs that fit, so that they
// race on the same misses, hit each other's entries and evict them all the
// time. The pairs include ones that differ only in where the key ends, and
// one over the length cap. Each goroutine passes views of its own buffer
// and overwrites the buffer after every call: a returned string must equal
// the input, split at the input's key length, and must not change with the
// buffer. Run under -race by make tier1-race.
func TestInternTableConcurrent(t *testing.T) {
	pairs := [][2]string{
		{"ab", "c"}, {"a", "bc"}, {"abc", ""}, {"", "abc"},
		{"zset", "m:1"}, {"zset", "m:2"}, {"zset", "m:3"}, {"zset:", "m:1"},
		{"k", strings.Repeat("x", internMaxPair)},
	}
	table := newInternTable(1)
	const goroutines, rounds = 4, 2000
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 2*internMaxPair)
			for r := range rounds {
				p := pairs[(g+r)%len(pairs)]
				buf = append(append(buf[:0], p[0]...), p[1]...)
				in := view(buf)
				key, member := table.own(in[:len(p[0])], in[len(p[0]):])
				for i := range buf {
					buf[i] = '#'
				}
				if key != p[0] || member != p[1] {
					t.Errorf("own(%q, %q) = %q, %q", p[0], p[1], key, member)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInternTableTagCollisions passes thousands of distinct pairs through a
// table of one set: every split of each of 300 strings into key and
// member, so that pairs with the same bytes but different splits meet. A
// new pair's one-byte tag equals a resident way's about once in 36 calls,
// and each such call must still return the pair it was given, split where
// it was given, not the resident one.
func TestInternTableTagCollisions(t *testing.T) {
	table := newInternTable(1)
	for i := range 300 {
		s := "key:" + strconv.Itoa(10_000_000+i)
		for j := range len(s) + 1 {
			if k, m := table.own(s[:j], s[j:]); k != s[:j] || m != s[j:] {
				t.Fatalf("own(%q, %q) = %q, %q", s[:j], s[j:], k, m)
			}
		}
	}
}

// TestInternSetKeepsItsWays fills a table of one set with as many pairs as
// it has ways, then asks for each again: every pair must come back as the
// copy first kept, so no new pair took a way that was already in use.
func TestInternSetKeepsItsWays(t *testing.T) {
	table := newInternTable(1)
	var kept [internWays]string
	for i := range kept {
		_, kept[i] = table.own("z", strconv.Itoa(i))
	}
	for i, m := range kept {
		if _, again := table.own("z", strconv.Itoa(i)); unsafe.StringData(again) != unsafe.StringData(m) {
			t.Errorf("pair %d of %d in one set was not kept", i, internWays)
		}
	}
}

// TestInternSetIsOneLine pins a set of the table at one 64-byte line, its
// tags and slots together.
func TestInternSetIsOneLine(t *testing.T) {
	if size := unsafe.Sizeof(internSet{}); size != 64 {
		t.Errorf("internSet size = %d, want 64", size)
	}
}
