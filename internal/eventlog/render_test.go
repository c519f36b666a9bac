package eventlog_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"mosaic/internal/eventlog"
	// Every package that declares record kinds, so that the targets below
	// see every kind in the tree.
	_ "mosaic/internal/faultinject"
	_ "mosaic/internal/fleetd"
	_ "mosaic/internal/mac"
	_ "mosaic/internal/netsim"
	_ "mosaic/internal/phy"
	_ "mosaic/internal/scenario"
)

// prefix is a kind shaped like fleetd's (epoch, link) prefix.
var prefix = eventlog.NewKind("epoch=%d link=%d %s", eventlog.Int, eventlog.Int, eventlog.Rec)

// A record is a kind and the values of its arguments, drawn from fuzz
// bytes: it appends itself to a log and says what fmt.Sprintf makes of
// the kind's format over the same values.
type record struct {
	k    *eventlog.Kind
	args []eventlog.Arg
	vals []any // int, float64, string, an enum's index, []int, *record
}

// source hands out fuzz bytes; past the end it reads zeros.
type source []byte

func (s *source) take(n int) []byte {
	b := make([]byte, n)
	*s = (*s)[copy(b, *s):]
	return b
}

func (s *source) u64() uint64 { return binary.LittleEndian.Uint64(s.take(8)) }
func (s *source) byte() int   { return int(s.take(1)[0]) }

// draw builds a record of a kind the source picks; nested records go at
// most depth deep.
func draw(s *source, depth int) *record {
	kinds := eventlog.Declared()
	k := kinds[s.byte()%len(kinds)]
	args := k.Args()
	if depth == 0 && len(args) > 0 && args[len(args)-1].Is(eventlog.Rec) {
		k = kinds[0] // a kind that takes a nested record ends here on the first
		for _, c := range kinds {
			if n := len(c.Args()); n == 0 || !c.Args()[n-1].Is(eventlog.Rec) {
				k = c
				break
			}
		}
		args = k.Args()
	}
	r := &record{k: k, args: args}
	for _, a := range args {
		var v any
		switch {
		case a.Is(eventlog.Int):
			v = int(s.u64())
		case a.Is(eventlog.Float):
			v = math.Float64frombits(s.u64())
		case a.Is(eventlog.Str):
			v = string(s.take(s.byte() % 24))
		case a.Is(eventlog.Enum()):
			v = s.byte() % len(a.Names())
		case a.Is(eventlog.Ints):
			vs := make([]int, s.byte()%5)
			for i := range vs {
				vs[i] = int(int32(s.u64()))
			}
			v = vs
		case a.Is(eventlog.Rec):
			v = draw(s, depth-1)
		}
		r.vals = append(r.vals, v)
	}
	return r
}

// fill appends r's arguments to e.
func (r *record) fill(e eventlog.Entry) {
	for i, v := range r.vals {
		switch v := v.(type) {
		case int:
			if r.args[i].Is(eventlog.Int) {
				e = e.Int(v)
			} else {
				e = e.Enum(v)
			}
		case float64:
			e = e.Float(v)
		case string:
			e = e.Str(v)
		case []int:
			e = e.Ints(v)
		case *record:
			v.fill(e.Rec(v.k))
		}
	}
}

// sprintf is what fmt makes of r: a nested record is its own line, an
// enum its name, a list its comma-joined values.
func (r *record) sprintf() string {
	args := make([]any, len(r.vals))
	for i, v := range r.vals {
		switch v := v.(type) {
		case int:
			if a := r.args[i]; a.Is(eventlog.Enum()) {
				args[i] = a.Names()[v]
				continue
			}
		case []int:
			s := make([]string, len(v))
			for j, x := range v {
				s[j] = strconv.Itoa(x)
			}
			args[i] = strings.Join(s, ",")
			continue
		case *record:
			args[i] = v.sprintf()
			continue
		}
		args[i] = v
	}
	return fmt.Sprintf(r.k.Format(), args...)
}

// FuzzEventRender holds the records to fmt: for every declared kind and
// fuzzed arguments the rendered line is fmt.Sprintf of the kind's format
// over the same arguments, at the cap the oldest records stay, the
// records' Digest equals Digest of their Lines, and a log copied under a
// prefix renders each line behind it.
func FuzzEventRender(f *testing.F) {
	for i := range eventlog.Declared() {
		f.Add([]byte{7, 1, byte(i), 0xff, 0x01, 0x80, 7, 'a', 'b', 0, 2, 0x40})
	}
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf in the first float
	f.Fuzz(func(t *testing.T, data []byte) {
		s := source(data)
		l := eventlog.Log{Max: 1 + s.byte()%8}
		n := s.byte() % 12
		var want []string
		for range n {
			r := draw(&s, 2)
			r.fill(l.Add(r.k))
			want = append(want, r.sprintf())
		}
		kept := min(n, l.Max)
		got := l.Lines()
		if len(got) != kept || l.Dropped() != uint64(n-kept) {
			t.Fatalf("%d records at cap %d: %d lines and %d dropped", n, l.Max, len(got), l.Dropped())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("record %d renders %q, fmt.Sprintf gives %q", i, got[i], want[i])
			}
		}
		trailer := string(s.take(s.byte() % 8))
		if a, b := l.Digest(), eventlog.Digest(got); a != b {
			t.Fatalf("records digest to %s, their lines to %s", a, b)
		}
		if a, b := l.Digest(trailer), eventlog.Digest(got, trailer); a != b {
			t.Fatalf("with a trailer, records digest to %s, their lines to %s", a, b)
		}

		var fleet eventlog.Log
		epoch, link := int(s.u64()), int(s.u64())
		fleet.AppendEach(&l, prefix, epoch, link)
		copied := fleet.Lines()
		if len(copied) != kept {
			t.Fatalf("%d records copied into %d lines", kept, len(copied))
		}
		for i, line := range copied {
			if w := fmt.Sprintf("epoch=%d link=%d %s", epoch, link, got[i]); line != w {
				t.Fatalf("copied record %d renders %q, want %q", i, line, w)
			}
		}
	})
}

// Appending a record of any declared kind, nested records included, to
// a warmed log allocates nothing, and neither does copying a log of
// them under a prefix.
func TestAppendAllocatesNothing(t *testing.T) {
	kinds := eventlog.Declared()
	if len(kinds) < 40 {
		t.Fatalf("%d kinds declared: the logging packages' kinds are missing", len(kinds))
	}
	for id := range kinds {
		s := source{byte(id), 1, 2, 3, 0x11, 5, 'x', 'y', 'z', 3, 9, 8, 7}
		r := draw(&s, 2)
		var l, fleet eventlog.Log
		add := func() { r.fill(l.Add(r.k)) }
		for range 200 {
			add()
		}
		fleet.AppendEach(&l, prefix, 1, 2)
		l.Reset()
		fleet.Reset()
		if n := testing.AllocsPerRun(100, add); n != 0 {
			t.Errorf("appending %q allocates %.0f times", r.k.Format(), n)
		}
		if n := testing.AllocsPerRun(100, func() { fleet.AppendEach(&l, prefix, 1, 2); fleet.Reset() }); n != 0 {
			t.Errorf("copying %q records allocates %.0f times", r.k.Format(), n)
		}
	}
}
