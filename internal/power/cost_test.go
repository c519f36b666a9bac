package power

import "testing"

func TestCostBasics(t *testing.T) {
	for _, tech := range AllTechs() {
		c, err := Cost(tech, 800e9, 1)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if c.TotalUSD() <= 0 {
			t.Errorf("%v: nonpositive cost", tech)
		}
	}
}

func TestCostValidation(t *testing.T) {
	if _, err := Cost(DR, 800e9, -1); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := Cost(DR, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestReachInfeasibleCost(t *testing.T) {
	if _, err := Cost(DAC, 800e9, 10); err == nil {
		t.Error("10 m copper should be unbuildable")
	}
	if _, err := Cost(Mosaic, 800e9, 60); err == nil {
		t.Error("60 m Mosaic exceeds reach")
	}
}

func TestCostOrderingInMosaicRange(t *testing.T) {
	// Inside 2 m, copper is unbeatable. From 3-50 m, Mosaic must be the
	// cheapest buildable option (that's the deployment pitch).
	tech, _, err := CheapestAt(800e9, 1)
	if err != nil || tech != DAC {
		t.Errorf("at 1 m cheapest = %v (%v), want DAC", tech, err)
	}
	for _, l := range []float64{3, 10, 30, 50} {
		tech, c, err := CheapestAt(800e9, l)
		if err != nil {
			t.Fatalf("at %v m: %v", l, err)
		}
		if tech != Mosaic {
			t.Errorf("at %v m cheapest = %v ($%.0f), want Mosaic", l, tech, c.TotalUSD())
		}
	}
	// Beyond 50 m only conventional optics remain.
	tech, _, err = CheapestAt(800e9, 100)
	if err != nil || tech == Mosaic || tech == DAC {
		t.Errorf("at 100 m cheapest = %v (%v)", tech, err)
	}
}

func TestCheapestAtNothingFits(t *testing.T) {
	if _, _, err := CheapestAt(800e9, 1e6); err == nil {
		t.Error("1000 km should fit nothing in this catalog")
	}
}

func TestCostScalesWithRate(t *testing.T) {
	c400, _ := Cost(Mosaic, 400e9, 10)
	c800, _ := Cost(Mosaic, 800e9, 10)
	if !(c400.ModulesUSD < c800.ModulesUSD) {
		t.Error("module cost should scale with rate")
	}
	if c400.CableUSD != c800.CableUSD {
		t.Error("cable cost should not depend on rate")
	}
}
