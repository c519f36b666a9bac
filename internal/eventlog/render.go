package eventlog

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"strings"
)

// Lines renders the retained records, oldest first; nil for an empty log.
// The lines are substrings of a few 64 KB strings, each built in place:
// reading a log allocates about what its lines hold, and a few objects.
func (l *Log) Lines() []string {
	if l.n == 0 {
		return nil
	}
	lines := make([]string, 0, l.n)
	var (
		chunk strings.Builder
		b     []byte
		ends  []int
	)
	cut := func() {
		s, start := chunk.String(), 0
		for _, end := range ends {
			lines, start = append(lines, s[start:end]), end
		}
		chunk, ends = strings.Builder{}, ends[:0]
	}
	for rec := l.buf; len(rec) > 0; {
		b, rec = render(b[:0], rec)
		if chunk.Len()+len(b) > chunk.Cap() {
			cut()
			chunk.Grow(max(1<<16, len(b)))
		}
		chunk.Write(b)
		ends = append(ends, chunk.Len())
	}
	cut()
	return lines
}

// Digest is Digest(l.Lines(), trailer...), each record rendered into the
// hash through one reused line buffer.
func (l *Log) Digest(trailer ...string) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	var b []byte
	for rec := l.buf; len(rec) > 0; {
		if len(rec) < len(l.buf) {
			w.WriteByte('\n')
		}
		b, rec = render(b[:0], rec)
		w.Write(b)
	}
	return finish(h, w, trailer)
}

// Digest is the golden-sha construction every determinism witness uses:
// hex of the first 8 bytes of sha256 over the "\n"-joined lines, each
// trailer (a run summary, typically) appended after a further "\n". The
// lines stream into the hash through a small buffer, so a long log is
// never joined into one string.
func Digest(lines []string, trailer ...string) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	for i, l := range lines {
		if i > 0 {
			w.WriteByte('\n')
		}
		w.WriteString(l)
	}
	return finish(h, w, trailer)
}

// finish streams the trailers after the lines and returns the digest.
func finish(h hash.Hash, w *bufio.Writer, trailer []string) string {
	for _, t := range trailer {
		w.WriteByte('\n')
		w.WriteString(t)
	}
	w.Flush() // a hash's Write never fails
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// render appends the line of the record at the head of rec to dst and
// returns what follows the record.
func render(dst, rec []byte) ([]byte, []byte) {
	k := kinds[rec[0]]
	rec = rec[1:]
	for _, f := range k.fields {
		dst = append(dst, f.lit...)
		switch f.t {
		case 'i':
			v, n := binary.Varint(rec)
			dst, rec = strconv.AppendInt(dst, v, 10), rec[n:]
		case 'f':
			v := math.Float64frombits(binary.LittleEndian.Uint64(rec))
			dst, rec = strconv.AppendFloat(dst, v, f.c, f.prec, 64), rec[8:]
		case 's':
			n, w := binary.Uvarint(rec)
			dst, rec = append(dst, rec[w:w+int(n)]...), rec[w+int(n):]
		case 'e':
			dst, rec = append(dst, f.names[rec[0]]...), rec[1:]
		case 'l':
			c, w := binary.Uvarint(rec)
			for rec = rec[w:]; c > 0; c-- {
				v, n := binary.Varint(rec)
				dst, rec = strconv.AppendInt(dst, v, 10), rec[n:]
				if c > 1 {
					dst = append(dst, ',')
				}
			}
		case 'r':
			dst, rec = render(dst, rec)
		}
	}
	return append(dst, k.tail...), rec
}

// whole is the kind Line renders through: a nested record alone.
var whole = NewKind("%v", Rec)

// Line renders the one record fill appends as the nested record of the
// entry it is handed: the String of a value that is logged as a record.
func Line(fill func(Entry)) string {
	var l Log
	fill(l.Add(whole))
	return l.Lines()[0]
}
