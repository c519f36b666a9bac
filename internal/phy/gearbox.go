package phy

// The gearbox is what makes Mosaic protocol agnostic: it converts between
// one fast serial stream and many slow channel streams by striping
// fixed-size units round-robin across the active lanes. Unit i goes to
// lane i mod L with per-lane sequence number i div L; reassembly inverts
// the permutation using the sequence numbers carried in channel frames, so
// arbitrary per-channel skew cannot reorder data.

// Stripe splits the stream into units of exactly unitLen bytes (the last
// unit is zero-padded) and deals them round-robin over lanes. It returns
// units[lane][seq]. A nil/empty stream returns empty per-lane slices.
func Stripe(stream []byte, lanes, unitLen int) [][][]byte {
	if lanes <= 0 || unitLen <= 0 {
		panic("phy: Stripe needs positive lanes and unit length")
	}
	nunits := (len(stream) + unitLen - 1) / unitLen
	out := make([][][]byte, lanes)
	perLane := (nunits + lanes - 1) / lanes
	for l := range out {
		out[l] = make([][]byte, 0, perLane)
	}
	for u := 0; u < nunits; u++ {
		unit := make([]byte, unitLen)
		copy(unit, stream[u*unitLen:min(len(stream), (u+1)*unitLen)])
		lane := u % lanes
		out[lane] = append(out[lane], unit)
	}
	return out
}

// Destripe reassembles the stream from per-lane units. missing[g] reports
// globally-indexed units that were lost (their positions are zero-filled
// so downstream alignment survives). totalUnits is the expected unit
// count; units[lane] may have gaps represented as nil entries.
func Destripe(units [][][]byte, lanes, unitLen, totalUnits int) (stream []byte, missing []int) {
	stream = make([]byte, totalUnits*unitLen)
	for g := 0; g < totalUnits; g++ {
		lane := g % lanes
		seq := g / lanes
		if lane >= len(units) || seq >= len(units[lane]) || units[lane][seq] == nil {
			missing = append(missing, g)
			continue
		}
		copy(stream[g*unitLen:], units[lane][seq])
	}
	return stream, missing
}
