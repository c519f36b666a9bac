package phy

import "testing"

func TestFECMetadata(t *testing.T) {
	cases := []struct {
		fec      FEC
		name     string
		overhead float64
	}{
		{NoFEC{}, "none", 0},
		{HammingFEC{}, "hamming72", 0.125},
		{NewRSLite(), "RS(68,64)/GF(2^8)", 4.0 / 64.0},
	}
	for _, c := range cases {
		if c.fec.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.fec.Name(), c.name)
		}
		if c.fec.Overhead() != c.overhead {
			t.Errorf("%s: overhead = %v, want %v", c.name, c.fec.Overhead(), c.overhead)
		}
	}
	if NewRSKP4().Name() == "" || NewRSKP4().Overhead() <= 0 {
		t.Error("KP4 metadata broken")
	}
}

func TestNoFECDecodeTruncated(t *testing.T) {
	if _, _, err := (NoFEC{}).AppendDecode(nil, []byte{1, 2}, 5); err == nil {
		t.Error("truncated NoFEC stream accepted")
	}
}

func TestConventionalConfigShape(t *testing.T) {
	cfg := ConventionalConfig()
	link, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if link.Mapper().NumLanes() != 8 || link.Mapper().SparesLeft() != 0 {
		t.Error("conventional shape wrong")
	}
	if link.AggregateRate() != 8*106.25e9 {
		t.Errorf("rate = %v", link.AggregateRate())
	}
	if link.Config().FEC.Name() != "RS(544,514)/GF(2^10)" {
		t.Errorf("FEC = %s", link.Config().FEC.Name())
	}
}

func TestMapperActivePhysicals(t *testing.T) {
	m, _ := NewMapper(4, 2)
	got := m.ActivePhysicals()
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i, p := range got {
		if p != i {
			t.Fatal("identity expected initially")
		}
	}
	m.Fail(1)
	got = m.ActivePhysicals()
	if got[1] != 4 {
		t.Errorf("lane 1 should map to spare 4, got %d", got[1])
	}
	// Returned slice is a copy: mutating it must not affect the mapper.
	got[0] = 99
	if m.Physical(0) == 99 {
		t.Error("ActivePhysicals leaked internal state")
	}
}

func TestRemapEventStrings(t *testing.T) {
	events := []RemapEvent{
		{Physical: 3, Lane: -1, Spare: -1},
		{Physical: 3, Lane: 2, Spare: 5},
		{Physical: 3, Lane: 2, Spare: -1, Degraded: true},
	}
	for _, e := range events {
		if e.String() == "" {
			t.Error("empty event string")
		}
	}
}

func TestByteEqual(t *testing.T) {
	if !byteEqual([]byte{1, 2}, []byte{1, 2}) {
		t.Error("equal slices reported unequal")
	}
	if byteEqual([]byte{1}, []byte{1, 2}) {
		t.Error("length mismatch reported equal")
	}
	if byteEqual([]byte{1, 3}, []byte{1, 2}) {
		t.Error("content mismatch reported equal")
	}
}
