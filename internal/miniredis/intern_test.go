package miniredis

import (
	"strings"
	"sync"
	"testing"
)

// TestInternTableConcurrent: goroutines own overlapping pairs through a
// table of one set, four slots for the eight pairs that fit, so that they
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
