package gf

import "testing"

// naiveMul8 is an in-test carry-less shift-and-reduce multiply over
// GF(2^8) with the conventional polynomial x^8+x^4+x^3+x^2+1 — written
// from the definition, sharing nothing with the Field's log/exp tables,
// so the exhaustive comparison below convicts either representation.
func naiveMul8(a, b int) int {
	p := 0
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		a <<= 1
		if a&0x100 != 0 {
			a ^= 0x11d
		}
		b >>= 1
	}
	return p
}

func mustDefault(t *testing.T, m int) *Field {
	t.Helper()
	f, err := Default(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMulTable8Exhaustive(t *testing.T) {
	f := mustDefault(t, 8)
	tab := f.MulTable8()
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := naiveMul8(a, b)
			if got := int(tab[a][b]); got != want {
				t.Fatalf("tab[%d][%d] = %d, naive says %d", a, b, got, want)
			}
			if got := f.Mul(a, b); got != want {
				t.Fatalf("Mul(%d,%d) = %d, naive says %d", a, b, got, want)
			}
		}
	}
}

func TestMulTable8CachedPerField(t *testing.T) {
	f := mustDefault(t, 8)
	if f.MulTable8() != f.MulTable8() {
		t.Error("MulTable8 rebuilt the table instead of returning the cache")
	}
	if f.M() != 8 {
		t.Errorf("M() = %d, want 8", f.M())
	}
}

func TestMulTable8RejectsOtherFields(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulTable8 on GF(2^10) should panic")
		}
	}()
	mustDefault(t, 10).MulTable8()
}

func TestDefaultCachesPerM(t *testing.T) {
	a, err := Default(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default(8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Default(8) returned distinct fields; want one shared instance")
	}
	if _, err := Default(2); err == nil {
		t.Error("Default(2) should error (no table entry for m=2)")
	}
}
