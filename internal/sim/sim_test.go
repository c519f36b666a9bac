package sim

import (
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := RNG(42, "flows"), RNG(42, "flows")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed, same stream name: sequences differ")
		}
	}
	// Different names are independent streams.
	_ = RNG(42, "x").Int63()
	if RNG(42, "y").Int63() != RNG(42, "y").Int63() {
		t.Fatal("stream y perturbed by draws from stream x")
	}
	if RNG(42, "x").Int63() == RNG(42, "y").Int63() {
		t.Fatal("streams x and y start on the same draw")
	}

	// Every committed table and golden was produced from these streams:
	// the derivation (seed XOR FNV-1a of the name) may not move.
	for _, c := range []struct {
		seed int64
		name string
		want [4]int64
	}{
		{1, "workload", [4]int64{4876829115208229532, 3785684813146915544, 7861106331902547186, 6087943665219073945}},
		{3, "flows", [4]int64{167635027666329540, 389138997220068259, 7731505743988340274, 8005726445798758852}},
	} {
		r := RNG(c.seed, c.name)
		for i, want := range c.want {
			if got := r.Int63(); got != want {
				t.Errorf("RNG(%d, %q) draw %d = %d, want %d", c.seed, c.name, i, got, want)
			}
		}
	}
}

func TestRNGDifferentSeeds(t *testing.T) {
	a, b := RNG(1, "s"), RNG(2, "s")
	same := 0
	for i := 0; i < 20; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical streams")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{2.5, "2.5s"},
		{3e-3, "3ms"},
		{4e-6, "4us"},
		{5e-9, "5ns"},
		{0, "0s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.t), got, c.want)
		}
	}
}
