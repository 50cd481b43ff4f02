package ds

// Buffer is the synthetic data structure of §8.2: n entries, each occupying
// one cache line, with a spare line between entries to defeat prefetching.
// Each operation touches c entries — always entry 0 (the contended line,
// modelling a stack's tail pointer or a tree's root) plus c-1 entries chosen
// by the caller — either reading them or reading-and-writing them.
type Buffer struct {
	lines []bufferLine
}

// bufferLine is one logical cache line plus one spare line of padding.
type bufferLine struct {
	data uint64
	_    [56]byte // rest of the 64-byte line
	_    [64]byte // spare line between entries (§8.2)
}

// NewBuffer returns a buffer with n entries.
func NewBuffer(n int) *Buffer {
	if n < 1 {
		n = 1
	}
	return &Buffer{lines: make([]bufferLine, n)}
}

// Len returns the number of entries.
func (b *Buffer) Len() int { return len(b.lines) }

// Read touches entry 0 and the given entries, reading each; it returns a
// checksum so the work is observable. It writes nothing: NR runs the reads
// of one replica concurrently.
func (b *Buffer) Read(entries []int) uint64 {
	sum := b.lines[0].data
	for _, e := range entries {
		sum += b.lines[e%len(b.lines)].data
	}
	return sum
}

// Update touches entry 0 and the given entries, reading and writing each;
// it returns a checksum of the values before the update.
func (b *Buffer) Update(entries []int) uint64 {
	sum := b.lines[0].data
	b.lines[0].data++
	for _, e := range entries {
		i := e % len(b.lines)
		sum += b.lines[i].data
		b.lines[i].data = sum
	}
	return sum
}

// Checksum returns the current value of the contended entry, used by tests
// to compare replicas.
func (b *Buffer) Checksum() uint64 { return b.lines[0].data }
