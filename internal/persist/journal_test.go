package persist

import (
	"cmp"
	"slices"
	"testing"
)

func sortByIdx(prs []TokenPair) {
	slices.SortFunc(prs, func(a, b TokenPair) int { return cmp.Compare(a.Idx, b.Idx) })
}

// journaled returns j.below(idx) in index order.
func journaled(j *tokenJournal, idx uint64) []TokenPair {
	prs := j.below(idx)
	sortByIdx(prs)
	return prs
}

// The journal is addressed by index, so it takes puts in any order (the
// WAL's one appender happens to arrive in order), straddling chunk
// boundaries; a cut falls anywhere in a chunk.
func TestTokenJournalChunks(t *testing.T) {
	var j tokenJournal
	const n = tokenChunkEntries
	tok := func(idx uint64) uint64 { return idx*31 + 5 }
	var want []TokenPair
	add := func(idxs ...uint64) {
		for _, idx := range idxs {
			j.put(idx, tok(idx))
			want = append(want, TokenPair{Idx: idx, Tok: tok(idx)})
		}
	}
	// Batches of four, the later one first, across the first chunk
	// boundary; then two far-away indices, and token 0 (the journal
	// reserves no token value) at index 0.
	for base := uint64(n - 12); base < n+12; base += 8 {
		add(base+4, base+5, base+6, base+7, base, base+1, base+2, base+3)
	}
	add(3*n+7, 1<<30)
	j.put(0, 0)
	want = append(want, TokenPair{Idx: 0, Tok: 0})
	sortByIdx(want)

	below := func(idx uint64) []TokenPair {
		var out []TokenPair
		for _, pr := range want {
			if pr.Idx < idx {
				out = append(out, pr)
			}
		}
		return out
	}
	for _, idx := range []uint64{0, 1, n - 12, n - 3, n, n + 5, n + 12, 3*n + 7, 3*n + 8, 1 << 40} {
		if got := journaled(&j, idx); !slices.Equal(got, below(idx)) {
			t.Fatalf("below(%d) = %v, want %v", idx, got, below(idx))
		}
	}

	// Mid-chunk: index 0's chunk goes whole, n+5's keeps its upper part.
	j.dropBelow(n + 5)
	want = slices.DeleteFunc(want, func(pr TokenPair) bool { return pr.Idx < n+5 })
	if got := journaled(&j, n+5); len(got) != 0 {
		t.Fatalf("below(%d) after dropping below it = %v", n+5, got)
	}
	if got := journaled(&j, 1<<40); !slices.Equal(got, want) {
		t.Fatalf("after dropBelow(%d): journal = %v, want %v", n+5, got, want)
	}
	if got := len(j.chunks); got != 3 || j.floor != n+5 {
		t.Fatalf("chunks held = %d, floor = %d, want 3 (chunk 0 freed) and %d", got, j.floor, n+5)
	}
	// A lower cut is a no-op, and the journal keeps taking puts above it.
	j.dropBelow(n)
	add(n+30, n+40)
	sortByIdx(want)
	if got := journaled(&j, 1<<40); !slices.Equal(got, want) || j.floor != n+5 {
		t.Fatalf("after re-append: journal = %v (floor %d), want %v", got, j.floor, want)
	}
	j.dropBelow(1 << 40)
	if got := journaled(&j, 1<<41); len(got) != 0 || len(j.chunks) != 0 {
		t.Fatalf("after dropping everything: %v, %d chunks", got, len(j.chunks))
	}
	add(1<<40 + 1)
	if got := journaled(&j, 1<<41); !slices.Equal(got, []TokenPair{{Idx: 1<<40 + 1, Tok: tok(1<<40 + 1)}}) {
		t.Fatalf("put after a full drop: journal = %v", got)
	}
}

// Checkpoints fold and drop the journal while the appender appends and its
// Flush trims to the durable watermark: every token must come out exactly
// once, whether it was still journaled or had to be read back from the
// segment files, and the journal must hold the durable lag, not the run.
func TestTokenJournalCheckpointWhileAppending(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), Options{Fsync: FsyncNever, PageBytes: 4096, SegmentBytes: 64 << 10})
	defer w.Close()
	const total = 3 * tokenChunkEntries
	// applied stands in for the replica's applied index: everything below it
	// has been appended.
	applied := make(chan uint64, 1)
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for idx := uint64(0); idx < total; idx++ {
			if err := w.Append(idx, idx+1, encU64(idx)); err != nil {
				t.Errorf("Append(%d): %v", idx, err)
				return
			}
			if idx%97 == 0 {
				w.Flush()
				select {
				case applied <- idx + 1:
				default:
				}
			}
		}
	}()
	seen := make(map[uint64]bool)
	from, fromDisk := uint64(0), 0
	fold := func(to uint64) {
		w.mu.Lock()
		floor := w.tokens.floor
		w.mu.Unlock()
		if floor > from {
			fromDisk++
		}
		prs, err := w.TokensBetween(from, to)
		if err != nil {
			t.Fatalf("TokensBetween(%d, %d): %v", from, to, err)
		}
		for _, pr := range prs {
			if pr.Tok != pr.Idx+1 || pr.Idx < from || pr.Idx >= to || seen[pr.Idx] {
				t.Fatalf("TokensBetween(%d, %d) returned %+v (seen before: %v)", from, to, pr, seen[pr.Idx])
			}
			seen[pr.Idx] = true
		}
		w.DropTokensBelow(to)
		from = to
	}
	for done := false; !done; {
		select {
		case to := <-applied:
			fold(to)
		case <-appended:
			done = true
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Flush() // trims to the watermark Sync published
	w.mu.Lock()
	held := len(w.tokens.chunks)
	w.mu.Unlock()
	if held > 1 {
		t.Fatalf("journal holds %d chunks with nothing left to make durable", held)
	}
	fold(total)
	if len(seen) != total {
		t.Fatalf("folded %d tokens, want %d", len(seen), total)
	}
	if fromDisk == 0 {
		t.Fatalf("no fold had to read the segment files back; the test exercised only the in-memory journal")
	}
	// Every record is still in the segment files, so an old range can be
	// asked for again; a range past what was appended cannot be accounted for.
	if prs, err := w.TokensBetween(0, total); err != nil || len(prs) != total {
		t.Fatalf("TokensBetween(0, %d) from disk alone: %d pairs, %v", total, len(prs), err)
	}
	if _, err := w.TokensBetween(total-3, total+5); err == nil {
		t.Fatalf("TokensBetween past the append frontier returned no error")
	}
}
