package diffcheck

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"mosaic/internal/coding/linecode"
	"mosaic/internal/coding/rs"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/refmodel"
)

// Byte-level stage runners. Each derives its whole input from
// (seed, caseIdx, size) via one rand.Rand, runs the optimized path and
// the reference model, and describes the first disagreement.

// diffScrambler checks the uint64-register scrambler/descrambler pair
// against the bit-history reference on a random stream.
func diffScrambler(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	data := make([]byte, 1+rng.Intn(64*size))
	rng.Read(data)
	regSeed := rng.Uint64() & (1<<58 - 1)

	opt := linecode.NewScrambler(regSeed).Scramble(append([]byte(nil), data...))
	ref := refmodel.NewScrambler(regSeed).Scramble(data)
	if i := firstDiff(opt, ref); i >= 0 {
		return fmt.Sprintf("scrambled byte %d: optimized %02x reference %02x", i, opt[i], ref[i])
	}
	back := linecode.NewDescrambler(regSeed).Descramble(append([]byte(nil), opt...))
	if i := firstDiff(back, data); i >= 0 {
		return fmt.Sprintf("descramble(scramble(x)) differs from x at byte %d", i)
	}
	refBack := refmodel.NewDescrambler(regSeed).Descramble(ref)
	if i := firstDiff(refBack, data); i >= 0 {
		return fmt.Sprintf("reference descrambler broke round-trip at byte %d", i)
	}
	return ""
}

// rsParams picks a small-t code deterministically per case: the subset
// search keeps the reference decoder fast only for t <= 3.
func rsParams(rng *rand.Rand) (n, k int) {
	switch rng.Intn(3) {
	case 0:
		return 68, 64 // RS-lite, t=2
	case 1:
		return 24, 18 // t=3
	default:
		return 15, 11 // t=2
	}
}

// diffRSEncode checks the LFSR encoder (EncodeTo, KP4's encode path)
// against the linear-solve reference on random data words.
func diffRSEncode(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	n, k := rsParams(rng)
	ref, err := refmodel.NewRS(n, k, 0)
	if err != nil {
		return "reference construction: " + err.Error()
	}
	opt, err := rs.Lite(n, k)
	if err != nil {
		return "optimized construction: " + err.Error()
	}
	optCW := make([]int, n)
	for trial := 0; trial < size; trial++ {
		data := make([]int, k)
		for i := range data {
			data[i] = rng.Intn(256)
		}
		refCW, err := ref.Encode(data)
		if err != nil {
			return "reference encode: " + err.Error()
		}
		if err := opt.EncodeTo(optCW, data); err != nil {
			return "optimized encode: " + err.Error()
		}
		for i := range refCW {
			if refCW[i] != optCW[i] {
				return fmt.Sprintf("RS(%d,%d) trial %d: codeword symbol %d is %d optimized, %d reference",
					n, k, trial, i, optCW[i], refCW[i])
			}
		}
	}
	return ""
}

// diffRSDecode checks the algebraic decoder (DecodeTo, KP4's decode
// path) against brute-force bounded-distance search across clean,
// correctable, and overloaded words.
func diffRSDecode(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	n, k := rsParams(rng)
	ref, err := refmodel.NewRS(n, k, 0)
	if err != nil {
		return "reference construction: " + err.Error()
	}
	opt, err := rs.Lite(n, k)
	if err != nil {
		return "optimized construction: " + err.Error()
	}
	cw, optOut, syn := make([]int, n), make([]int, n), make([]int, n-k)
	for trial := 0; trial < size; trial++ {
		data := make([]int, k)
		for i := range data {
			data[i] = rng.Intn(256)
		}
		if err := opt.EncodeTo(cw, data); err != nil {
			return "optimized encode: " + err.Error()
		}
		recv := append([]int(nil), cw...)
		nerr := rng.Intn(ref.T() + 3) // 0..t+2: spans clean, correctable, overloaded
		for _, pos := range rng.Perm(n)[:nerr] {
			recv[pos] ^= 1 + rng.Intn(255)
		}
		refOut, refCorr, refOK := ref.Decode(append([]int(nil), recv...))
		optCorr, optErr := opt.DecodeTo(optOut, recv, syn)
		if refOK != (optErr == nil) {
			return fmt.Sprintf("RS(%d,%d) trial %d (%d errors): reference ok=%v but optimized err=%v",
				n, k, trial, nerr, refOK, optErr)
		}
		if !refOK {
			continue
		}
		if refCorr != optCorr {
			return fmt.Sprintf("RS(%d,%d) trial %d: corrections %d optimized, %d reference",
				n, k, trial, optCorr, refCorr)
		}
		for i := range refOut {
			if refOut[i] != optOut[i] {
				return fmt.Sprintf("RS(%d,%d) trial %d: corrected symbol %d is %d optimized, %d reference",
					n, k, trial, i, optOut[i], refOut[i])
			}
		}
	}
	return ""
}

// diffFramer checks the channel framer (hunt, FEC, CRC, stats) against
// the reference on a stream of frames with random corruption and junk.
func diffFramer(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	unitLen := 9 * (1 + rng.Intn(7))
	var optFEC phy.FEC
	var refFEC refmodel.FECRef
	if rng.Intn(2) == 0 {
		optFEC, refFEC = phy.NoFEC{}, refmodel.NoFECRef{}
	} else {
		optFEC, refFEC = phy.NewRSLite(), refmodel.NewRSLiteRef()
	}
	opt := phy.NewFramer(optFEC, unitLen)
	ref := refmodel.NewFramer(refFEC, unitLen)
	if opt.WireLen() != ref.WireLen() {
		return fmt.Sprintf("wire length %d optimized, %d reference", opt.WireLen(), ref.WireLen())
	}

	var stream []byte
	for seq := 0; seq < 1+size; seq++ {
		payload := make([]byte, unitLen)
		rng.Read(payload)
		lane := rng.Intn(64)
		optWire := opt.Encode(lane, uint32(seq), payload)
		refWire := ref.EncodeFrame(lane, uint32(seq), payload)
		if i := firstDiff(optWire, refWire); i >= 0 {
			return fmt.Sprintf("encoded frame seq %d differs at wire byte %d", seq, i)
		}
		if rng.Intn(4) == 0 { // inter-frame junk to exercise the hunt
			junk := make([]byte, rng.Intn(10))
			rng.Read(junk)
			stream = append(stream, junk...)
		}
		stream = append(stream, optWire...)
	}
	for i := 0; i < size; i++ { // sprinkle corruption
		stream[rng.Intn(len(stream))] ^= byte(1 + rng.Intn(255))
	}

	optFrames, optStats := opt.DecodeStream(stream)
	refFrames, refStats := ref.DecodeStream(stream)
	if got := (refmodel.DecodeStats{
		Frames:       optStats.Frames,
		CRCFailures:  optStats.CRCFailures,
		FECOverloads: optStats.FECOverloads,
		Corrections:  optStats.Corrections,
		SkippedBytes: optStats.SkippedBytes,
	}); got != refStats {
		return fmt.Sprintf("decode stats: optimized %+v reference %+v", got, refStats)
	}
	if len(optFrames) != len(refFrames) {
		return fmt.Sprintf("recovered %d frames optimized, %d reference", len(optFrames), len(refFrames))
	}
	for i := range optFrames {
		o, r := optFrames[i], refFrames[i]
		if o.Lane != r.Lane || o.Seq != r.Seq || o.Corrections != r.Corrections || !bytes.Equal(o.Payload, r.Payload) {
			return fmt.Sprintf("recovered frame %d differs (lane %d/%d seq %d/%d)", i, o.Lane, r.Lane, o.Seq, r.Seq)
		}
	}
	return ""
}

// diffStriper checks the striper's index arithmetic (byte-view striping
// and LaneUnits) against the reference that deals explicit unit records.
func diffStriper(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	lanes := 1 + rng.Intn(12)
	unitLen := 9 * (1 + rng.Intn(4))
	totalUnits := 1 + rng.Intn(8*size)
	stream := make([]byte, totalUnits*unitLen)
	rng.Read(stream)

	perLane, err := refmodel.Stripe(stream, lanes, unitLen)
	if err != nil {
		return "reference stripe: " + err.Error()
	}
	for lane := 0; lane < lanes; lane++ {
		if got, want := phy.LaneUnits(totalUnits, lanes, lane), len(perLane[lane]); got != want {
			return fmt.Sprintf("lane %d: LaneUnits says %d units, reference dealt %d", lane, got, want)
		}
		for _, u := range perLane[lane] {
			// The optimized pipeline's unit (seq, lane) is the byte view
			// stream[(seq*lanes+lane)*unitLen:].
			g := u.Seq*lanes + lane
			view := stream[g*unitLen : (g+1)*unitLen]
			if i := firstDiff(view, u.Payload); i >= 0 {
				return fmt.Sprintf("lane %d seq %d: stripe byte %d differs", lane, u.Seq, i)
			}
		}
	}
	if got := refmodel.Destripe(perLane, totalUnits, unitLen); !bytes.Equal(got, stream) {
		return "destripe(stripe(x)) != x"
	}
	return ""
}

// diffMACFrame checks the MAC deframer (accept/reject taxonomy and
// resync) against the naive reference scanner on a mixed buffer.
func diffMACFrame(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	maxPayload := 64 + rng.Intn(256)
	var buf []byte
	for i := 0; i < 1+size; i++ {
		switch rng.Intn(5) {
		case 0: // idle run
			for j := rng.Intn(12); j > 0; j-- {
				buf = append(buf, mac.IdleByte)
			}
		case 1: // random junk (may contain stray magics)
			junk := make([]byte, rng.Intn(20))
			rng.Read(junk)
			buf = append(buf, junk...)
		case 2: // a real v2 frame with a VC byte
			p := make([]byte, rng.Intn(maxPayload+8)) // sometimes over budget
			rng.Read(p)
			buf = mac.AppendFrameVC(buf, byte(rng.Intn(8)), byte(rng.Intn(mac.MaxVCs)),
				uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), p)
		default: // a real v1 frame
			p := make([]byte, rng.Intn(maxPayload+8)) // sometimes over budget
			rng.Read(p)
			buf = mac.AppendFrame(buf, byte(rng.Intn(4)), uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), p)
		}
	}
	for i := 0; i < size && len(buf) > 0; i++ {
		buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
	}

	var optFrames []mac.Frame
	d := mac.Deframer{MaxPayload: maxPayload}
	d.Deframe(buf, func(f mac.Frame) {
		f.Payload = append([]byte(nil), f.Payload...)
		optFrames = append(optFrames, f)
	})
	refFrames, refStats := refmodel.MACDeframe(buf, maxPayload)
	if got := (refmodel.MACDeframeStats{
		Frames:        d.Stats.Frames,
		PayloadBytes:  d.Stats.PayloadBytes,
		IdleBytes:     d.Stats.IdleBytes,
		SkippedBytes:  d.Stats.SkippedBytes,
		HeaderRejects: d.Stats.HeaderRejects,
		CRCRejects:    d.Stats.CRCRejects,
		Truncated:     d.Stats.Truncated,
	}); got != refStats {
		return fmt.Sprintf("deframe stats: optimized %+v reference %+v", got, refStats)
	}
	if len(optFrames) != len(refFrames) {
		return fmt.Sprintf("deframed %d frames optimized, %d reference", len(optFrames), len(refFrames))
	}
	for i := range optFrames {
		o, r := optFrames[i], refFrames[i]
		if o.Flags != r.Flags || o.VC != r.VC || o.Seq != r.Seq || o.Ack != r.Ack || !bytes.Equal(o.Payload, r.Payload) {
			return fmt.Sprintf("deframed frame %d differs", i)
		}
	}
	return ""
}

// diffBSCSkip checks the geometric skip-sampling channel against the
// bit-walking reference twin: same seed, same knobs, byte-identical
// output. Edge regimes are drawn explicitly — ber 0 (clean), ber beyond
// the constructor clamp (every bit flips, no draws), a ber so small the
// first gap overshoots the whole stream, plus skew prefixes and dead
// channels — and two back-to-back transmissions pin the generator state
// carried between calls.
func diffBSCSkip(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	data := make([]byte, 1+rng.Intn(128*size))
	rng.Read(data)
	var ber float64
	switch rng.Intn(6) {
	case 0:
		ber = 0
	case 1:
		ber = 1 // past the clamp, set via the public field below
	case 2:
		ber = 1e-12 // expected gap of ~10^12 bits: overshoots any frame
	case 3:
		ber = 0.5
	default:
		ber = math.Pow(10, -1-6*rng.Float64())
	}
	chanSeed := rng.Int63()
	skew := rng.Intn(17)
	dead := rng.Intn(8) == 0

	opt := phy.NewBSC(ber, chanSeed)
	ref := refmodel.NewBSC(ber, chanSeed)
	opt.BER, ref.BER = ber, ber // bypass the constructor clamp for ber=1
	opt.SkewBytes, ref.SkewBytes = skew, skew
	opt.Dead, ref.Dead = dead, dead

	for round := 0; round < 2; round++ {
		optOut := opt.Transmit(data)
		refOut := ref.Transmit(data)
		if len(optOut) != len(refOut) {
			return fmt.Sprintf("round %d: output length %d optimized, %d reference", round, len(optOut), len(refOut))
		}
		if i := firstDiff(optOut, refOut); i >= 0 {
			return fmt.Sprintf("round %d (ber=%g skew=%d dead=%v): byte %d is %02x optimized, %02x reference",
				round, ber, skew, dead, i, optOut[i], refOut[i])
		}
	}
	return ""
}

// diffRSVector checks the vectorized byte-stream RS path — sliced-table
// encode, re-encode clean check, parity-difference syndromes — against
// the reference byte FEC over multi-block streams with 0..np+2 errors per
// block (spanning clean, correctable, and overloaded words).
func diffRSVector(seed int64, caseIdx, size, _ int) string {
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx)))
	n, k := rsParams(rng)
	np := n - k
	refCode, err := refmodel.NewRS(n, k, 0)
	if err != nil {
		return "reference construction: " + err.Error()
	}
	ref := &refmodel.RSByteFEC{Code: refCode}
	code, err := rs.Lite(n, k)
	if err != nil {
		return "optimized construction: " + err.Error()
	}
	opt := phy.NewRSFEC(code)

	blocks := 1 + rng.Intn(3)
	plainLen := 1 + rng.Intn(blocks*k)
	plain := make([]byte, plainLen)
	rng.Read(plain)

	optEnc := opt.Encode(plain)
	refEnc := ref.Encode(plain)
	if i := firstDiff(optEnc, refEnc); i >= 0 {
		return fmt.Sprintf("RS(%d,%d) plainLen %d: encoded byte %d is %02x optimized, %02x reference",
			n, k, plainLen, i, optEnc[i], refEnc[i])
	}

	// Corrupt each block independently with 0..np+2 byte errors.
	recv := append([]byte(nil), optEnc...)
	total := 0
	for b := 0; b+n <= len(recv); b += n {
		nerr := rng.Intn(np + 3)
		total += nerr
		for _, pos := range rng.Perm(n)[:nerr] {
			recv[b+pos] ^= byte(1 + rng.Intn(255))
		}
	}
	optOut, optCorr, optErr := opt.Decode(recv, plainLen)
	refOut, refCorr, refStatus := ref.Decode(append([]byte(nil), recv...), plainLen)
	if i := firstDiff(optOut, refOut); i >= 0 {
		return fmt.Sprintf("RS(%d,%d) %d errors: decoded byte %d is %02x optimized, %02x reference",
			n, k, total, i, optOut[i], refOut[i])
	}
	if optCorr != refCorr {
		return fmt.Sprintf("RS(%d,%d) %d errors: corrections %d optimized, %d reference", n, k, total, optCorr, refCorr)
	}
	if (optErr != nil) != (refStatus == refmodel.FECOverload) {
		return fmt.Sprintf("RS(%d,%d) %d errors: overload %v optimized, %v reference",
			n, k, total, optErr != nil, refStatus == refmodel.FECOverload)
	}
	return ""
}

// firstDiff returns the first index where a and b differ (length
// mismatch counts from the shorter length), or -1 when equal.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}
