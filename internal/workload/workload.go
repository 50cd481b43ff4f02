// Package workload holds the seedable generator every load generator in the
// repository draws from (benchmark/, cmd/nrbench, internal/bench, the
// integration tests), so a seed names one operation stream everywhere.
package workload

import "fmt"

// RNG is a small, fast, seedable xorshift64* generator. Every thread in a
// benchmark owns one, so workload generation never synchronizes.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &RNG{state: seed}
}

// Next returns the next raw 64-bit value.
func (r *RNG) Next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Intn(%d)", n))
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}
