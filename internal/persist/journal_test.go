package persist

import (
	"cmp"
	"slices"
	"sync"
	"testing"
)

func sortByIdx(prs []TokenPair) {
	slices.SortFunc(prs, func(a, b TokenPair) int { return cmp.Compare(a.Idx, b.Idx) })
}

// journaled returns w.TokensBelow(idx) in index order.
func journaled(w *WAL, idx uint64) []TokenPair {
	prs := w.TokensBelow(idx)
	sortByIdx(prs)
	return prs
}

// The two nodes' combiners append their reservations in whatever order they
// finish, so indices arrive out of order and straddle chunk boundaries; a
// checkpoint's applied index falls anywhere in a chunk.
func TestTokenJournalChunks(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer w.Close()
	const n = tokenChunkEntries
	tok := func(idx uint64) uint64 { return idx*31 + 5 }
	var want []TokenPair
	add := func(idxs ...uint64) {
		for _, idx := range idxs {
			if err := w.AppendBytes(idx, tok(idx), nil); err != nil {
				t.Fatalf("AppendBytes(%d): %v", idx, err)
			}
			want = append(want, TokenPair{Idx: idx, Tok: tok(idx)})
		}
	}
	// Batches of four from two combiners, the later reservation first,
	// across the first chunk boundary; then two far-away indices, and
	// token 0 (the journal reserves no token value) at index 0.
	for base := uint64(n - 12); base < n+12; base += 8 {
		add(base+4, base+5, base+6, base+7, base, base+1, base+2, base+3)
	}
	add(3*n+7, 1<<30)
	if err := w.Append(0, 0, encU64(0)); err != nil {
		t.Fatal(err)
	}
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
		if got := journaled(w, idx); !slices.Equal(got, below(idx)) {
			t.Fatalf("TokensBelow(%d) = %v, want %v", idx, got, below(idx))
		}
	}

	// Mid-chunk: index 0's chunk goes whole, n+5's keeps its upper part.
	w.DropTokensBelow(n + 5)
	want = slices.DeleteFunc(want, func(pr TokenPair) bool { return pr.Idx < n+5 })
	if got := journaled(w, n+5); len(got) != 0 {
		t.Fatalf("TokensBelow(%d) after dropping below it = %v", n+5, got)
	}
	if got := journaled(w, 1<<40); !slices.Equal(got, want) {
		t.Fatalf("after DropTokensBelow(%d): journal = %v, want %v", n+5, got, want)
	}
	if got := len(w.tokens.chunks); got != 3 {
		t.Fatalf("chunks held = %d, want 3 (chunk 0 freed)", got)
	}
	// The journal keeps taking appends on either side of the cut.
	add(n+3, n+20)
	sortByIdx(want)
	if got := journaled(w, 1<<40); !slices.Equal(got, want) {
		t.Fatalf("after re-append: journal = %v, want %v", got, want)
	}
	w.DropTokensBelow(1 << 40)
	if got := journaled(w, 1<<40); len(got) != 0 || len(w.tokens.chunks) != 0 {
		t.Fatalf("after dropping everything: %v, %d chunks", got, len(w.tokens.chunks))
	}
	add(n + 1)
	if got := journaled(w, 1<<40); !slices.Equal(got, []TokenPair{{Idx: n + 1, Tok: tok(n + 1)}}) {
		t.Fatalf("append after a full drop: journal = %v", got)
	}
}

// Checkpoints fold and drop the journal while both combiners append to it:
// every token must come out exactly once, folded or still journaled.
func TestTokenJournalCheckpointWhileAppending(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer w.Close()
	const (
		writers = 2
		each    = 3 * tokenChunkEntries
	)
	var wg sync.WaitGroup
	for wr := uint64(0); wr < writers; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); k < each; k++ {
				idx := k*writers + wr
				if err := w.AppendBytes(idx, idx+1, nil); err != nil {
					t.Errorf("AppendBytes(%d): %v", idx, err)
					return
				}
			}
		}()
	}
	appended := make(chan struct{})
	go func() { wg.Wait(); close(appended) }()
	seen := make(map[uint64]bool)
	fold := func(applied uint64) {
		for _, pr := range w.TokensBelow(applied) {
			if pr.Tok != pr.Idx+1 || pr.Idx >= applied || seen[pr.Idx] {
				t.Fatalf("TokensBelow(%d) returned %+v (seen before: %v)", applied, pr, seen[pr.Idx])
			}
			seen[pr.Idx] = true
		}
		w.DropTokensBelow(applied)
	}
	// A checkpoint's applied index never passes what has been appended:
	// the contiguity frontier stands in for it.
	for done := false; !done; {
		select {
		case <-appended:
			done = true
		default:
		}
		w.mu.Lock()
		applied := w.frontier
		w.mu.Unlock()
		fold(applied)
	}
	if len(seen) != writers*each {
		t.Fatalf("folded %d tokens, want %d", len(seen), writers*each)
	}
}
