// The WAL's in-memory token journal.
package persist

// TokenPair is one appended record's (log index, op token), journaled
// in memory for detectability: a checkpoint folds the pairs below its
// applied index into the snapshot's token set. Kept by the WAL because
// only the WAL knows which pairs it can give up: those below the durable
// watermark are in its segment files (WAL.TokensBetween reads them back),
// so the journal holds the durable lag, not the run's history.
type TokenPair struct {
	Idx, Tok uint64
}

// A chunk's tokens and presence bits together fill Go's 32 KiB size class
// (32760 of 32768 bytes); a power-of-two entry count would spill into the
// next page and waste a quarter of it.
const (
	tokenChunkWords   = 63
	tokenChunkEntries = 64 * tokenChunkWords
)

// tokenChunk holds the tokens of log indices [no*tokenChunkEntries,
// (no+1)*tokenChunkEntries). The index is the position, so a token costs
// 8 bytes and a bit. The bit, not a reserved token value, says whether a
// position is journaled: the WAL gives no token a special meaning (core's
// tokens happen never to be 0, direct users append 0 freely).
type tokenChunk struct {
	toks [tokenChunkEntries]uint64
	have [tokenChunkWords]uint64
}

// tokenJournal is the (index, token) journal of the records at or above
// floor, in chunks addressed by log index: an append writes one word in
// place, nothing is ever copied to make room, and dropBelow frees the
// chunks it covers whole. Not safe for concurrent use (the WAL guards it
// with w.mu).
type tokenJournal struct {
	chunks map[uint64]*tokenChunk // by idx / tokenChunkEntries
	floor  uint64                 // highest dropBelow so far: nothing below it is held
	// last is the chunk of the latest put, so appends in index order touch
	// the map once per chunk.
	last   *tokenChunk
	lastNo uint64
}

func (j *tokenJournal) put(idx, tok uint64) {
	no, at := idx/tokenChunkEntries, idx%tokenChunkEntries
	c := j.last
	if c == nil || no != j.lastNo {
		if c = j.chunks[no]; c == nil {
			if j.chunks == nil {
				j.chunks = make(map[uint64]*tokenChunk)
			}
			c = new(tokenChunk)
			j.chunks[no] = c
		}
		j.last, j.lastNo = c, no
	}
	c.toks[at] = tok
	c.have[at/64] |= 1 << (at % 64)
}

// below returns every journaled pair with index below idx, in no order.
func (j *tokenJournal) below(idx uint64) []TokenPair {
	var out []TokenPair
	for no, c := range j.chunks {
		first := no * tokenChunkEntries
		for at := uint64(0); at < tokenChunkEntries && first+at < idx; at++ {
			if c.have[at/64]&(1<<(at%64)) != 0 {
				out = append(out, TokenPair{Idx: first + at, Tok: c.toks[at]})
			}
		}
	}
	return out
}

// dropBelow discards every pair with index below idx: chunks wholly below
// are freed, the one idx falls in keeps its positions from idx on.
func (j *tokenJournal) dropBelow(idx uint64) {
	if idx <= j.floor {
		return
	}
	j.floor = idx
	for no, c := range j.chunks {
		first := no * tokenChunkEntries
		switch {
		case first+tokenChunkEntries <= idx:
			delete(j.chunks, no)
			if c == j.last {
				j.last = nil
			}
		case first < idx:
			cut := idx - first
			for w := uint64(0); w < cut/64; w++ {
				c.have[w] = 0
			}
			c.have[cut/64] &^= 1<<(cut%64) - 1
		}
	}
}
