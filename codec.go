package nr

import (
	"bytes"
	"encoding/gob"
	"sync"
)

// GobCodec is the batteries-included Codec: encoding/gob over the
// operation type. It works for any gob-encodable O with zero setup, at the
// price of gob's per-value overhead (type prefixes, reflection, an
// allocation per op) on the combiner's append path — for throughput-
// sensitive workloads, write a hand-rolled Codec instead; see
// internal/chaos and internal/miniredis for examples.
type GobCodec[O any] struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// NewGobCodec returns a gob-backed Codec for O.
func NewGobCodec[O any]() *GobCodec[O] { return &GobCodec[O]{} }

// AppendEncode implements Codec. Each op is encoded with a fresh gob
// stream so records stay independently decodable (a WAL record must not
// depend on its predecessors' type dictionary).
func (c *GobCodec[O]) AppendEncode(dst []byte, op O) ([]byte, error) {
	// Guards the scratch buffer against direct multi-goroutine use; under NR
	// only the combiner encodes, so the lock is uncontended there.
	c.mu.Lock() //nr:blockok
	defer c.mu.Unlock()
	c.buf.Reset()
	enc := gob.NewEncoder(&c.buf)
	if err := enc.Encode(&op); err != nil {
		return dst, err
	}
	return append(dst, c.buf.Bytes()...), nil
}

// Decode implements Codec.
func (c *GobCodec[O]) Decode(data []byte) (O, error) {
	var op O
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&op)
	return op, err
}
