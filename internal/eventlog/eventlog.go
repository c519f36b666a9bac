// Package eventlog is the repo's one deterministic event log. Every layer
// that witnesses its behaviour in a golden sha (MAC session, fault soak,
// fleetd fleet and links, FleetSim epochs, scenario engine) appends
// records to a Log and hashes them one way, through Digest.
//
// A record is a kind, declared once at package level with the format it
// renders to, and its arguments, packed into the log's one byte arena:
// integers as varints, floats as 8 bytes, enum values as one byte,
// strings length-prefixed, a nested record inline. Appending takes no
// lock, looks nothing up and formats nothing; Lines and Digest render the
// records on demand, each as fmt.Sprintf renders its kind's format over
// the same arguments.
package eventlog

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
)

// DefaultMax is the record cap of a Log whose Max is not positive.
const DefaultMax = 100000

// Arg is the type of one record argument. Int renders with %d; Float with
// %g, %e, %f or %v, at a precision such as %.4f; Str, an Enum, Ints
// (comma-joined) and Rec, a nested record and a kind's last argument,
// with %s or %v.
type Arg struct {
	t     byte     // 'i' Int, 'f' Float, 's' Str, 'e' Enum, 'l' Ints, 'r' Rec
	names []string // an Enum's values
}

// The argument types.
var Int, Float, Str, Ints, Rec = Arg{t: 'i'}, Arg{t: 'f'}, Arg{t: 's'}, Arg{t: 'l'}, Arg{t: 'r'}

// Enum is an argument stored as one byte, v, and rendered as names[v].
func Enum(names ...string) Arg { return Arg{'e', names} }

// Kind is a record kind: its format, cut at the verbs.
type Kind struct {
	id     byte
	format string
	fields []field
	tail   string // the text after the last verb
}

// field is the text before one verb and the argument the verb takes; a
// Float's verb and precision are strconv.AppendFloat's.
type field struct {
	lit string
	Arg
	c    byte
	prec int
}

// kinds is every declared kind, indexed by id.
var kinds []*Kind

// NewKind declares a record kind. Declare kinds at package level: a
// kind's id is its place in declaration order, and there is room for 256.
// It panics on a format whose verbs do not take args one to one.
func NewKind(format string, args ...Arg) *Kind {
	k, rest := &Kind{id: byte(len(kinds)), format: format}, format
	for i, a := range args {
		lit, v, _ := strings.Cut(rest, "%")
		f, verbs := field{lit: lit, Arg: a, c: 'g', prec: -1}, "sv"
		switch a.t {
		case 'i':
			verbs = "d"
		case 'f':
			verbs = "gefv"
			if p, ok := strings.CutPrefix(v, "."); ok {
				v = strings.TrimLeft(p, "0123456789")
				f.prec, _ = strconv.Atoi(p[:len(p)-len(v)])
			}
		}
		if v == "" || !strings.Contains(verbs, v[:1]) || a.t == 'r' && i < len(args)-1 {
			panic("eventlog: format " + format + ": verbs do not match the arguments")
		}
		if a.t == 'f' && v[0] != 'v' {
			f.c = v[0]
		}
		if f.c != 'g' && f.prec < 0 {
			f.prec = 6
		}
		k.fields, rest = append(k.fields, f), v[1:]
	}
	if strings.Contains(rest, "%") || len(kinds) > math.MaxUint8 {
		panic("eventlog: format " + format + ": more verbs than arguments, or a 257th kind")
	}
	k.tail = rest
	kinds = append(kinds, k)
	return k
}

// Log is a capped, append-only record log; the zero value is ready to
// use. Not safe for concurrent use: fleetd, which shares one across API
// calls, guards it with the fleet lock.
type Log struct {
	Max     int    // records retained; <= 0 means DefaultMax
	buf     []byte // the records, back to back
	n       int    // records retained
	dropped uint64
	open    *Kind // the record being appended, and its next argument
	next    int
}

// Entry is the record being appended: each method packs the next
// argument of its kind and returns the entry for the one after. A record
// gets every argument before its log's next Add. The zero Entry, which
// Add returns for a record dropped at the cap, ignores its arguments.
type Entry struct{ l *Log }

// Add opens a record of kind k, or counts it as dropped at the cap.
func (l *Log) Add(k *Kind) Entry {
	max := l.Max
	if max <= 0 {
		max = DefaultMax
	}
	if l.n >= max {
		l.dropped++
		return Entry{}
	}
	l.n++
	l.buf = append(l.buf, k.id)
	l.open, l.next = k, 0
	return Entry{l}
}

// put packs the open record's next argument, which must be of type t.
func (e Entry) put(t byte, pack func([]byte) []byte) Entry {
	if l := e.l; l != nil {
		if l.open == nil || l.next == len(l.open.fields) || l.open.fields[l.next].t != t {
			panic("eventlog: an argument does not match its record's kind")
		}
		l.next++
		l.buf = pack(l.buf)
	}
	return e
}

// Int appends an Int argument.
func (e Entry) Int(v int) Entry {
	return e.put('i', func(b []byte) []byte { return binary.AppendVarint(b, int64(v)) })
}

// Float appends a Float argument.
func (e Entry) Float(v float64) Entry {
	return e.put('f', func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) })
}

// Str appends a Str argument.
func (e Entry) Str(s string) Entry {
	return e.put('s', func(b []byte) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) })
}

// Enum appends an Enum argument, the index of its name.
func (e Entry) Enum(v int) Entry {
	return e.put('e', func(b []byte) []byte { return append(b, byte(v)) })
}

// Ints appends an Ints argument.
func (e Entry) Ints(vs []int) Entry {
	return e.put('l', func(b []byte) []byte {
		b = binary.AppendUvarint(b, uint64(len(vs)))
		for _, v := range vs {
			b = binary.AppendVarint(b, int64(v))
		}
		return b
	})
}

// Rec opens a nested record of kind k as the Rec argument and returns the
// entry for k's arguments.
func (e Entry) Rec(k *Kind) Entry {
	e = e.put('r', func(b []byte) []byte { return append(b, k.id) })
	if e.l != nil {
		e.l.open, e.l.next = k, 0
	}
	return e
}

// AppendEach appends each record of src, oldest first, as the nested
// record of a record of kind k whose other arguments, all Int, are
// prefix: fleetd files a link's records under (epoch, link) so.
func (l *Log) AppendEach(src *Log, k *Kind, prefix ...int) {
	for rec := src.buf; len(rec) > 0; {
		next := skip(rec)
		e := l.Add(k)
		for _, v := range prefix {
			e = e.Int(v)
		}
		e.put('r', func(b []byte) []byte { return append(b, rec[:len(rec)-len(next)]...) })
		rec = next
	}
}

// skip returns what follows the record at the head of rec.
func skip(rec []byte) []byte {
	fields := kinds[rec[0]].fields
	for rec = rec[1:]; len(fields) > 0; fields = fields[1:] {
		n := uint64(0)
		switch fields[0].t {
		case 'f':
			n = 8
		case 'e':
			n = 1
		case 'r':
			return skip(rec)
		case 's':
			var w int
			n, w = binary.Uvarint(rec)
			n += uint64(w)
		case 'l':
			c, w := binary.Uvarint(rec)
			for rec = rec[w:]; c > 0; c-- {
				_, w = binary.Uvarint(rec)
				rec = rec[w:]
			}
		default:
			_, w := binary.Uvarint(rec)
			n = uint64(w)
		}
		rec = rec[n:]
	}
	return rec
}

// Dropped is the number of records refused since the log hit its cap.
func (l *Log) Dropped() uint64 { return l.dropped }

// Reset empties the log and its drop count but keeps the arena's
// capacity, so a per-epoch buffer is refilled, not reallocated.
func (l *Log) Reset() { l.buf, l.n, l.dropped, l.open = l.buf[:0], 0, 0, nil }
