package gf

import "sync"

// Table-driven fast paths for the byte field GF(2^8).
//
// The log/antilog representation in gf.go is compact and works for every
// m, but each Mul costs two log lookups, an add, and an exp lookup — and,
// worse for a hot loop, a pair of zero branches. For the per-channel
// RS-lite codec the PHY runs on every lane of every superframe, the
// winning representation is the full 256×256 product table: one
// dependent load per multiply, and a *row* of the table is a complete
// "multiply by constant c" map that a slice-wide kernel can hoist out of
// its inner loop (see internal/coding/rs.Codec8).
//
// The table is 64 KiB, built once per field on first use and cached on
// the Field; Fields are immutable so the cache is safe to share across
// every codec and worker.

// mul8Cache is the lazily built byte-product table for an m=8 field.
type mul8Cache struct {
	once sync.Once
	tab  *[256][256]byte
}

var mul8ByField sync.Map // *Field -> *mul8Cache

// MulTable8 returns the full product table of an m=8 field:
// tab[a][b] = a·b. Row tab[c][:] is the multiply-by-c map. It panics for
// fields other than GF(2^8); callers gate on M() == 8.
func (f *Field) MulTable8() *[256][256]byte {
	if f.m != 8 {
		panic("gf: MulTable8 needs GF(2^8)")
	}
	ci, _ := mul8ByField.LoadOrStore(f, &mul8Cache{})
	c := ci.(*mul8Cache)
	c.once.Do(func() {
		tab := new([256][256]byte)
		for a := 1; a < 256; a++ {
			la := int(f.log[a])
			for b := 1; b < 256; b++ {
				tab[a][b] = byte(f.exp[la+int(f.log[b])])
			}
		}
		c.tab = tab
	})
	return c.tab
}

// defaultFields caches one Field per supported m, so constructing a codec
// (rs.Lite builds GF(2^8), rs.KP4 builds GF(2^10)) stops paying the table
// build — and every codec over the same m shares one MulTable8 cache.
var defaultFields sync.Map // int -> *Field

// Default returns the process-wide shared field GF(2^m) over the
// package's primitive polynomial for m. Fields are immutable, so sharing
// one instance is safe; use New when a private instance or a custom
// polynomial is needed.
func Default(m int) (*Field, error) {
	if f, ok := defaultFields.Load(m); ok {
		return f.(*Field), nil
	}
	f, err := New(m)
	if err != nil {
		return nil, err
	}
	actual, _ := defaultFields.LoadOrStore(m, f)
	return actual.(*Field), nil
}
