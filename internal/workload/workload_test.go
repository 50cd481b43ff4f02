package workload

import "testing"

func TestRNGDeterministicAndNonZeroSeed(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	z := NewRNG(0)
	if z.Next() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestRNGIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f", f)
		}
	}
}
